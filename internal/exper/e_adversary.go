package exper

import (
	"errors"
	"fmt"
	"sort"

	"github.com/cogradio/crn/internal/adversary"
	"github.com/cogradio/crn/internal/aggfunc"
	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/cogcomp"
	"github.com/cogradio/crn/internal/faults"
	"github.com/cogradio/crn/internal/jamming"
	recov "github.com/cogradio/crn/internal/recover"
	"github.com/cogradio/crn/internal/rng"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E30",
		Title: "Reactive adversary tournament under an energy budget",
		Claim: "Section 7 discussion, sharpened: against energy-bounded reactive adversaries COGCAST degrades gracefully (the Theorem 18 reduction absorbs adaptive jamming as shrunken overlap), unsupervised COGCOMP is brittle, and the recovery supervisor restores completion at a slot-overhead cost — with the phase-boundary crasher costing supervised COGCOMP strictly more than oblivious outages of equal energy.",
		Run:   runE30,
	})
}

// tournament is E30's run: it pits the repo's protocol configurations
// (COGCAST under the Theorem 18 jamming reduction; COGCOMP classic;
// COGCOMP under the recovery supervisor) against the reactive adversary
// population of package adversary, under one shared energy budget, and
// ranks the adversaries by the damage they inflict. Where the hitting
// games lower-bound what *any* algorithm can do, the tournament measures
// what *these* algorithms lose to an adaptive attacker with bounded
// energy. Each trial's engine settings come from the suite's Config
// through cfg.cast and cfg.comp; tournament trials are never traced.
type tournament struct {
	// n and c size every arm's network: c is the full physical spectrum
	// for the jammed COGCAST arm and the channel count of the partitioned
	// static assignment for the COGCOMP arms.
	n, c   int
	trials int // repetitions per duel
	// budget is the energy budget every adversary plays under. A
	// non-positive per-slot cap or total reserve makes every adversary
	// inert: its rows equal its arm's "none" baseline.
	budget adversary.Budget
	seed   int64 // roots every trial seed
}

// tourK is the per-node channel-set size of the COGCOMP arms' partitioned
// assignment.
const tourK = 2

// tourArms are the protocol configurations under attack, in table order.
// canUse admits the strategies that can wield the arm's weapon.
var tourArms = []struct {
	name, claim string
	canUse      func(string) bool
	trial       func(t tournament, a *arena, cfg Config, strategy string, ts int64) (trialOutcome, error)
}{
	{"COGCAST/jam", "reactive jammers slow the epidemic but cannot stop it (overlap stays >= c-2k)",
		adversary.CanJam, tournament.castTrial},
	{"COGCOMP/classic", "without supervision, targeted crash-restarts stall or corrupt the phases",
		adversary.CanCrash, tournament.classicTrial},
	{"COGCOMP/recover", "the supervisor converts failures into slot overhead; targeted boundary attacks cost the most",
		adversary.CanCrash, tournament.recoverTrial},
}

// duel is one (arm, strategy) row: aggregate robustness metrics over the
// tournament's trials. completions counts trials that finished with full,
// correct results (all informed / exact aggregate over all nodes);
// degraded counts trials that terminated with a wrong or partial result,
// stalled those that ran out of slots. medianSlots is the median
// completion time over completed trials (0 when none completed), and
// overhead is it relative to the arm's "none" row (1 for the baseline
// itself, 0 when undefined). energySpent is the mean adversary energy
// charged per trial; exhausted counts trials whose reserve ran dry.
type duel struct {
	strategy                                          string
	trials, completions, degraded, stalled, exhausted int
	medianSlots, overhead, energySpent                float64
}

// trialOutcome is one trial's contribution to a duel.
type trialOutcome struct {
	complete, degraded, stalled bool
	slots                       float64
	energy                      int
	exhausted                   bool
}

func runE30(cfg Config) ([]*Table, error) {
	// The seed is offset from the shared experiment root into E30's domain.
	t := tournament{n: 32, c: 8, trials: cfg.trials(), budget: adversary.Budget{PerSlot: 3, Total: 240}, seed: cfg.Seed ^ 0x3030}
	if cfg.Quick {
		t.n = 24
		t.trials = min(t.trials, 5)
		t.budget.Total = 160
	}
	blocks, err := t.run(cfg)
	if err != nil {
		return nil, err
	}

	var tables []*Table
	for ai, arm := range tourArms {
		tb := &Table{
			Title: fmt.Sprintf("E30: %s vs the adversary population (n=%d, c=%d, per-slot %d, reserve %d, %d trials; ranked by damage)",
				arm.name, t.n, t.c, t.budget.PerSlot, t.budget.Total, t.trials),
			Claim:   arm.claim,
			Columns: []string{"adversary", "completions", "degraded", "stalled", "median slots", "overhead", "energy spent", "exhausted"},
		}
		for _, d := range blocks[ai] {
			overhead := "-"
			if d.overhead > 0 {
				overhead = ftoa(d.overhead)
			}
			median := "-"
			if d.medianSlots > 0 {
				median = ftoa(d.medianSlots)
			}
			tb.AddRow(d.strategy, fmt.Sprintf("%d/%d", d.completions, d.trials),
				itoa(d.degraded), itoa(d.stalled), median, overhead,
				ftoa(d.energySpent), itoa(d.exhausted))
		}
		tables = append(tables, tb)
	}

	// The acceptance comparison: on the supervised arm, the phase-boundary
	// crasher against E26-style oblivious outages at the same energy budget.
	sup, supRows := tables[len(tables)-1], blocks[len(blocks)-1]
	var crasher, oblivious *duel
	for i := range supRows {
		switch supRows[i].strategy {
		case "crasher":
			crasher = &supRows[i]
		case "oblivious":
			oblivious = &supRows[i]
		}
	}
	if crasher != nil && oblivious != nil {
		worse := crasher.completions < oblivious.completions ||
			(crasher.completions == oblivious.completions && crasher.overhead > oblivious.overhead)
		verdict := "CONFIRMED"
		if !worse {
			verdict = "UNEXPECTED"
		}
		sup.AddNote("%s: phase-boundary crasher (%d/%d complete, overhead %.2f) vs equal-energy oblivious outages (%d/%d complete, overhead %.2f) — reading the phase structure should hurt more than blind outages",
			verdict, crasher.completions, crasher.trials, crasher.overhead,
			oblivious.completions, oblivious.trials, oblivious.overhead)
	}
	sup.AddNote("paired trial seeds: every adversary faces the baseline's exact draws, so overhead is a paired comparison")
	tables[0].AddNote("overhead below 1 is real, not noise: jamming the busiest channels concentrates devices on fewer channels, which can accelerate the epidemic (the same concentration effect as E22's heavy-occupancy regime)")
	return tables, nil
}

// run plays every arm against every strategy that can wield the arm's
// weapon, plus the "none" baseline, and returns one ranked block of duels
// per arm, in tourArms order. The blocks are identical at any worker
// count and engine setting.
func (t tournament) run(cfg Config) ([][]duel, error) {
	blocks := make([][]duel, len(tourArms))
	for ai, arm := range tourArms {
		for _, strategy := range opponents(arm.canUse) {
			// Trial seeds are paired across strategies — derived from the
			// arm and trial index alone — so every adversary faces the same
			// baseline draws, overhead comparisons are paired, and an inert
			// adversary's row equals the "none" row.
			outcomes, err := forTrials(cfg, t.trials, func(trial int, a *arena) (trialOutcome, error) {
				return arm.trial(t, a, cfg, strategy, rng.Derive(t.seed, int64(ai), int64(trial), 0x7031))
			})
			if err != nil {
				return nil, fmt.Errorf("%s vs %s: %w", arm.name, strategy, err)
			}
			blocks[ai] = append(blocks[ai], summarizeDuel(strategy, outcomes))
		}
		rankDuels(blocks[ai])
	}
	return blocks, nil
}

// opponents lists the strategies admitted to an arm: the "none" baseline
// first, then every strategy the weapon predicate accepts, in registry
// order.
func opponents(canUse func(string) bool) []string {
	out := []string{"none"}
	for _, name := range adversary.Strategies() {
		if name != "none" && canUse(name) {
			out = append(out, name)
		}
	}
	return out
}

// driver builds the budgeted driver for one trial, or nil when the
// strategy/budget combination is inert (the "none" baseline and the
// zero-energy arms both collapse to an unattacked run — identical to the
// baseline by construction, not merely by measure).
func (t tournament) driver(strategy string, seed int64, wire func(*adversary.Driver)) (*adversary.Driver, error) {
	if strategy == "none" || t.budget.PerSlot <= 0 || t.budget.Total <= 0 {
		return nil, nil
	}
	strat, err := adversary.New(strategy)
	if err != nil {
		return nil, err
	}
	drv, err := adversary.NewDriver(strat, t.n, t.c, t.budget, seed)
	if err != nil {
		return nil, err
	}
	wire(drv)
	if !drv.Active() {
		return nil, nil
	}
	drv.Reset()
	return drv, nil
}

// castTrial runs one jammed COGCAST broadcast: the driver feeds the
// Theorem 18 reduction as the jammer and observes the slot outcomes. The
// baseline runs the identical reduction with a zero budget and no jammer.
func (t tournament) castTrial(a *arena, cfg Config, strategy string, ts int64) (trialOutcome, error) {
	var out trialOutcome
	kJam := t.budget.PerSlot
	if 2*kJam >= t.c {
		kJam = (t.c - 1) / 2
	}
	drv, err := t.driver(strategy, ts, func(d *adversary.Driver) { d.EnableJam(kJam) })
	if err != nil {
		return out, err
	}
	var jam jamming.Jammer = jamming.NoJammer{}
	k := 0
	rc := cfg.cast(cogcast.RunConfig{UntilAllInformed: true})
	if drv != nil {
		jam, k = drv, kJam
		rc.Observer = drv
	}
	asn, err := jamming.NewAssignment(t.n, t.c, k, jam, ts)
	if err != nil {
		return out, err
	}
	res, err := a.cast.Run(asn, 0, "m", ts, rc)
	if err != nil {
		return out, err
	}
	if res.AllInformed {
		out.complete = true
		out.slots = float64(res.Slots)
	} else {
		out.stalled = true
	}
	chargeLedger(&out, drv)
	return out, nil
}

// compSetup prepares one COGCOMP trial: the crash driver (source
// protected), the partitioned assignment, and the inputs 1..n in the
// arena's input scratch, whose sum it returns.
func (t tournament) compSetup(a *arena, strategy string, ts int64) (*adversary.Driver, sim.Assignment, int64, error) {
	drv, err := t.driver(strategy, ts, func(d *adversary.Driver) { d.EnableCrash(0) })
	if err != nil {
		return nil, nil, 0, err
	}
	asn, err := a.assign.Partitioned(t.n, t.c, tourK, assign.LocalLabels, ts)
	if err != nil {
		return nil, nil, 0, err
	}
	if cap(a.in) < t.n {
		a.in = make([]int64, t.n)
	}
	a.in = a.in[:t.n]
	var want int64
	for i := range a.in {
		a.in[i] = int64(i + 1)
		want += a.in[i]
	}
	return drv, asn, want, nil
}

// recoverTrial runs one COGCOMP aggregation under the recovery supervisor
// with the driver as crash schedule and observer.
func (t tournament) recoverTrial(a *arena, cfg Config, strategy string, ts int64) (trialOutcome, error) {
	var out trialOutcome
	drv, asn, want, err := t.compSetup(a, strategy, ts)
	if err != nil {
		return out, err
	}
	rcfg := recov.Config{Config: cfg.comp(cogcomp.Config{})}
	if drv != nil {
		rcfg.Observer, rcfg.Schedule = drv, drv
	}
	res, err := a.rec.Run(asn, 0, a.in, ts, rcfg)
	if err != nil {
		return out, err
	}
	switch {
	case res.Complete && res.Value == aggfunc.Value(want):
		out.complete = true
	case res.Stalled:
		out.stalled = true
	default:
		out.degraded = true
	}
	out.slots = float64(res.TotalSlots)
	chargeLedger(&out, drv)
	return out, nil
}

// classicTrial runs one unsupervised COGCOMP aggregation whose nodes the
// driver crashes and restarts. Attacked runs go without the oracle, as
// E20's faulted runs do: a wrong aggregate or a broken tree is the
// degraded outcome this arm measures, not a violation. The unattacked
// baseline keeps cfg.Check.
func (t tournament) classicTrial(a *arena, cfg Config, strategy string, ts int64) (trialOutcome, error) {
	var out trialOutcome
	drv, asn, want, err := t.compSetup(a, strategy, ts)
	if err != nil {
		return out, err
	}
	ccfg := cfg.comp(cogcomp.Config{})
	var wrap func(sim.NodeID, *cogcomp.Node) sim.Protocol
	if drv != nil {
		ccfg.Observer, ccfg.Check = drv, false
		wrap = func(id sim.NodeID, nd *cogcomp.Node) sim.Protocol {
			return faults.Wrap(nd, id, drv, faults.WithRestart())
		}
	}
	res, err := a.comp.RunWith(asn, 0, a.in, ts, ccfg, wrap)
	switch {
	case err == nil && res.Value == aggfunc.Value(want):
		out.complete = true
		out.slots = float64(res.TotalSlots)
	case err == nil:
		// Terminated, wrong answer: the unsupervised protocol silently
		// corrupted (E20's failure mode under outages).
		out.degraded = true
		out.slots = float64(res.TotalSlots)
	case errors.Is(err, cogcomp.ErrIncomplete):
		out.stalled = true
		if res != nil {
			out.slots = float64(res.TotalSlots)
		}
	case errors.Is(err, sim.ErrMaxSlots):
		out.stalled = true
	default:
		return out, err
	}
	chargeLedger(&out, drv)
	return out, nil
}

func chargeLedger(out *trialOutcome, drv *adversary.Driver) {
	if drv == nil {
		return
	}
	l := drv.Ledger()
	out.energy = l.Spent
	out.exhausted = l.ExhaustedAt >= 0
}

// summarizeDuel folds per-trial outcomes into one duel (overhead is
// filled in by rankDuels once the baseline median is known).
func summarizeDuel(strategy string, outcomes []trialOutcome) duel {
	d := duel{strategy: strategy, trials: len(outcomes)}
	var done []float64
	var energy float64
	for _, o := range outcomes {
		switch {
		case o.complete:
			d.completions++
			done = append(done, o.slots)
		case o.degraded:
			d.degraded++
		case o.stalled:
			d.stalled++
		}
		energy += float64(o.energy)
		if o.exhausted {
			d.exhausted++
		}
	}
	if len(done) > 0 {
		s, err := stats.Summarize(done)
		if err == nil {
			d.medianSlots = s.Median
		}
	}
	if d.trials > 0 {
		d.energySpent = energy / float64(d.trials)
	}
	return d
}

// rankDuels orders one arm's block — baseline first, then adversaries by
// damage: fewest completions, most degraded or stalled, largest overhead —
// and computes each row's overhead against the baseline median.
func rankDuels(block []duel) {
	var base float64
	for _, d := range block {
		if d.strategy == "none" {
			base = d.medianSlots
		}
	}
	for i := range block {
		if base > 0 && block[i].medianSlots > 0 {
			block[i].overhead = block[i].medianSlots / base
		}
	}
	sort.SliceStable(block, func(i, j int) bool {
		a, b := block[i], block[j]
		if (a.strategy == "none") != (b.strategy == "none") {
			return a.strategy == "none"
		}
		if a.completions != b.completions {
			return a.completions < b.completions
		}
		if af, bf := a.degraded+a.stalled, b.degraded+b.stalled; af != bf {
			return af > bf
		}
		if a.overhead != b.overhead {
			return a.overhead > b.overhead
		}
		return a.strategy < b.strategy
	})
}
