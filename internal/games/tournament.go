package games

// The tournament runner extends the package's adversarial repertoire from
// the abstract hitting games to full protocol executions: it pits the
// repo's protocol configurations (COGCAST under the Theorem 18 jamming
// reduction; COGCOMP classic; COGCOMP under the recovery supervisor)
// against the reactive adversary population of package adversary, under
// one shared energy budget, and ranks the adversaries by the damage they
// inflict. Where the hitting games lower-bound what *any* algorithm can
// do, the tournament measures what *these* algorithms lose to an adaptive
// attacker with bounded energy.

import (
	"context"
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
	"github.com/cogradio/crn/internal/parallel"
	recov "github.com/cogradio/crn/internal/recover"
	"github.com/cogradio/crn/internal/rng"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/stats"
)

// Tournament configures one adversary tournament.
type Tournament struct {
	// Nodes and Channels size every arm's network. Channels is the full
	// physical spectrum for the jammed COGCAST arm and the channel count
	// of the partitioned static assignment for the COGCOMP arms.
	Nodes, Channels int
	// Trials is the number of independent repetitions per duel. Zero
	// means 5.
	Trials int
	// Budget is the shared energy budget every adversary plays under. A
	// non-positive per-slot cap or total reserve makes every adversary
	// arm inert — byte-identical to its config's "none" baseline.
	Budget adversary.Budget
	// Seed roots all randomness; identical configs reproduce identical
	// results at any Workers or Shards setting.
	Seed int64
	// Workers bounds concurrent trial goroutines (0 = GOMAXPROCS, 1 =
	// serial). Results are identical for every value.
	Workers int
	// Shards splits each trial's per-slot protocol scan (sim.WithShards).
	// Results are identical for every value.
	Shards int
	// Check runs trials under the invariant oracle (the runners' Check
	// field): every COGCAST and supervised COGCOMP trial, and the classic
	// COGCOMP arm's unattacked baseline. Attacked classic trials run
	// without it, as E20's faulted runs do: a wrong aggregate or a broken
	// tree is the degraded outcome that arm measures, not a violation. A
	// violation fails the tournament.
	Check bool
	// Context, when non-nil, stops the tournament once it is done: the
	// trial pool stops claiming trials and every trial's engine checks it
	// at slot boundaries. A completed tournament is identical either way.
	Context context.Context
}

// Duel is one (protocol configuration, adversary strategy) cell of the
// tournament: aggregate robustness metrics over the configured trials.
type Duel struct {
	// Config names the protocol configuration under attack.
	Config string
	// Strategy names the adversary (see adversary.Strategies).
	Strategy string
	// Trials is the repetition count the remaining fields aggregate.
	Trials int
	// Completions counts trials that finished with full, correct results
	// (all informed / exact aggregate over all nodes).
	Completions int
	// Degraded counts trials that terminated with a wrong or partial
	// result; Stalled counts trials that ran out of slots.
	Degraded, Stalled int
	// MedianSlots is the median completion time over completed trials
	// (0 when no trial completed).
	MedianSlots float64
	// Overhead is MedianSlots relative to the same config's "none"
	// baseline row (1 for the baseline itself, 0 when undefined).
	Overhead float64
	// EnergySpent is the mean adversary energy charged per trial;
	// Exhausted counts trials in which the reserve ran dry.
	EnergySpent float64
	// Exhausted counts trials whose adversary ran out of energy.
	Exhausted int
}

// TournamentResult is the full ranked table set.
type TournamentResult struct {
	// Duels holds every cell, grouped by config in arm order; within each
	// config the baseline "none" row comes first and the adversaries
	// follow ranked by damage (fewest completions, most degraded/stalled,
	// largest overhead).
	Duels []Duel
}

// ByConfig returns the duels of one configuration, in ranked order.
func (r *TournamentResult) ByConfig(config string) []Duel {
	var out []Duel
	for _, d := range r.Duels {
		if d.Config == config {
			out = append(out, d)
		}
	}
	return out
}

// tourK is the per-node channel-set size of the COGCOMP arms' partitioned
// assignment.
const tourK = 2

// Arm names used in Duel.Config.
const (
	ArmCogcastJam     = "COGCAST/jam"
	ArmCogcompBare    = "COGCOMP/classic"
	ArmCogcompRecover = "COGCOMP/recover"
)

// trialOutcome is one trial's contribution to a Duel.
type trialOutcome struct {
	complete, degraded, stalled bool
	slots                       float64
	energy                      int
	exhausted                   bool
}

// tourArena is the per-worker scratch for tournament trials.
type tourArena struct {
	assign assign.Builder
	cast   cogcast.Arena
	comp   cogcomp.Arena
	rec    recov.Arena
	inputs []int64
}

// RunTournament executes the full tournament: every protocol arm against
// every strategy that can wield the arm's weapon, plus the "none"
// baseline. Deterministic for a fixed config at any Workers/Shards value.
func RunTournament(cfg Tournament) (*TournamentResult, error) {
	if cfg.Nodes < 2 || cfg.Channels < 2 {
		return nil, fmt.Errorf("games: tournament needs nodes >= 2 and channels >= 2, got n=%d c=%d", cfg.Nodes, cfg.Channels)
	}
	if cfg.Trials == 0 {
		cfg.Trials = 5
	}

	type armSpec struct {
		name   string
		canUse func(string) bool
		run    func(a *tourArena, strategy string, seed int64) (trialOutcome, error)
	}
	arms := []armSpec{
		{ArmCogcastJam, adversary.CanJam, func(a *tourArena, s string, ts int64) (trialOutcome, error) {
			return cogcastTrial(a, cfg, s, ts)
		}},
		{ArmCogcompBare, adversary.CanCrash, func(a *tourArena, s string, ts int64) (trialOutcome, error) {
			return cogcompTrial(a, cfg, s, ts, false)
		}},
		{ArmCogcompRecover, adversary.CanCrash, func(a *tourArena, s string, ts int64) (trialOutcome, error) {
			return cogcompTrial(a, cfg, s, ts, true)
		}},
	}

	res := &TournamentResult{}
	for ai, arm := range arms {
		var block []Duel
		for _, strategy := range Opponents(arm.canUse) {
			// Trial seeds are paired across strategies — derived from the
			// arm and trial index alone — so every adversary faces the same
			// baseline draws, overhead comparisons are paired, and an inert
			// adversary's row is byte-identical to the "none" row.
			outcomes, err := parallel.MapArena(cfg.Context, cfg.Trials, cfg.Workers,
				func() *tourArena { return new(tourArena) },
				func(trial int, a *tourArena) (trialOutcome, error) {
					ts := rng.Derive(cfg.Seed, int64(ai), int64(trial), 0x7031)
					return arm.run(a, strategy, ts)
				})
			if err != nil {
				return nil, fmt.Errorf("games: %s vs %s: %w", arm.name, strategy, err)
			}
			block = append(block, summarizeDuel(arm.name, strategy, outcomes))
		}
		rankDuels(block)
		res.Duels = append(res.Duels, block...)
	}
	return res, nil
}

// Opponents lists the strategies admitted to an arm: the "none" baseline
// first, then every strategy the weapon predicate accepts, in registry
// order.
func Opponents(canUse func(string) bool) []string {
	out := []string{"none"}
	for _, name := range adversary.Strategies() {
		if name != "none" && canUse(name) {
			out = append(out, name)
		}
	}
	return out
}

// newDuelDriver builds the budgeted driver for one trial, or nil when the
// strategy/budget combination is inert (the "none" baseline and the
// zero-energy arms both collapse to an unattacked run — byte-identical to
// the baseline by construction, not merely by measure).
func newDuelDriver(strategy string, n, c int, budget adversary.Budget, seed int64, wire func(*adversary.Driver)) (*adversary.Driver, error) {
	if strategy == "none" || budget.PerSlot <= 0 || budget.Total <= 0 {
		return nil, nil
	}
	strat, err := adversary.New(strategy)
	if err != nil {
		return nil, err
	}
	drv, err := adversary.NewDriver(strat, n, c, budget, seed)
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

// cogcastTrial runs one jammed COGCAST broadcast: the driver feeds the
// Theorem 18 reduction as the jammer and observes the slot outcomes. The
// baseline runs the identical reduction with a zero budget and no jammer.
func cogcastTrial(a *tourArena, cfg Tournament, strategy string, ts int64) (trialOutcome, error) {
	var out trialOutcome
	n, c := cfg.Nodes, cfg.Channels
	kJam := cfg.Budget.PerSlot
	if 2*kJam >= c {
		kJam = (c - 1) / 2
	}
	drv, err := newDuelDriver(strategy, n, c, cfg.Budget, ts, func(d *adversary.Driver) { d.EnableJam(kJam) })
	if err != nil {
		return out, err
	}
	var jam jamming.Jammer = jamming.NoJammer{}
	k := 0
	rcfg := cogcast.RunConfig{UntilAllInformed: true, Shards: cfg.Shards, Check: cfg.Check, Context: cfg.Context}
	if drv != nil {
		jam, k = drv, kJam
		rcfg.Observer = drv
	}
	asn, err := jamming.NewAssignment(n, c, k, jam, ts)
	if err != nil {
		return out, err
	}
	res, err := a.cast.Run(asn, 0, "m", ts, rcfg)
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

// cogcompTrial runs one COGCOMP aggregation — classic or under the
// recovery supervisor — with the driver as crash schedule (source
// protected) and observer.
func cogcompTrial(a *tourArena, cfg Tournament, strategy string, ts int64, recover bool) (trialOutcome, error) {
	var out trialOutcome
	n, c := cfg.Nodes, cfg.Channels
	drv, err := newDuelDriver(strategy, n, c, cfg.Budget, ts, func(d *adversary.Driver) { d.EnableCrash(0) })
	if err != nil {
		return out, err
	}
	asn, err := a.assign.Partitioned(n, c, tourK, assign.LocalLabels, ts)
	if err != nil {
		return out, err
	}
	if cap(a.inputs) < n {
		a.inputs = make([]int64, n)
	}
	a.inputs = a.inputs[:n]
	var want int64
	for i := range a.inputs {
		a.inputs[i] = int64(i + 1)
		want += a.inputs[i]
	}

	ccfg := cogcomp.Config{Shards: cfg.Shards, Check: cfg.Check, Context: cfg.Context}
	if drv != nil {
		ccfg.Observer = drv
	}
	if recover {
		rcfg := recov.Config{Config: ccfg}
		if drv != nil {
			rcfg.Schedule = drv
		}
		res, err := a.rec.Run(asn, 0, a.inputs, ts, rcfg)
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

	// Attacked classic runs go unchecked: the oracle would report this
	// arm's degraded outcome as a violation (see Tournament.Check).
	var wrap func(sim.NodeID, *cogcomp.Node) sim.Protocol
	if drv != nil {
		ccfg.Check = false
		wrap = func(id sim.NodeID, nd *cogcomp.Node) sim.Protocol {
			return faults.Wrap(nd, id, drv, faults.WithRestart())
		}
	}
	res, err := a.comp.RunWith(asn, 0, a.inputs, ts, ccfg, wrap)
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

// summarizeDuel folds per-trial outcomes into one Duel row (Overhead is
// filled in by rankDuels once the baseline median is known).
func summarizeDuel(config, strategy string, outcomes []trialOutcome) Duel {
	d := Duel{Config: config, Strategy: strategy, Trials: len(outcomes)}
	var done []float64
	var energy float64
	for _, o := range outcomes {
		switch {
		case o.complete:
			d.Completions++
			done = append(done, o.slots)
		case o.degraded:
			d.Degraded++
		case o.stalled:
			d.Stalled++
		}
		energy += float64(o.energy)
		if o.exhausted {
			d.Exhausted++
		}
	}
	if len(done) > 0 {
		s, err := stats.Summarize(done)
		if err == nil {
			d.MedianSlots = s.Median
		}
	}
	if d.Trials > 0 {
		d.EnergySpent = energy / float64(d.Trials)
	}
	return d
}

// rankDuels orders one config's block — baseline first, adversaries by
// damage — and computes each row's overhead against the baseline median.
func rankDuels(block []Duel) {
	var base float64
	for _, d := range block {
		if d.Strategy == "none" {
			base = d.MedianSlots
		}
	}
	for i := range block {
		if base > 0 && block[i].MedianSlots > 0 {
			block[i].Overhead = block[i].MedianSlots / base
		}
	}
	sort.SliceStable(block, func(i, j int) bool {
		a, b := block[i], block[j]
		if (a.Strategy == "none") != (b.Strategy == "none") {
			return a.Strategy == "none"
		}
		if a.Completions != b.Completions {
			return a.Completions < b.Completions
		}
		if af, bf := a.Degraded+a.Stalled, b.Degraded+b.Stalled; af != bf {
			return af > bf
		}
		if a.Overhead != b.Overhead {
			return a.Overhead > b.Overhead
		}
		return a.Strategy < b.Strategy
	})
}
