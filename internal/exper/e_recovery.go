package exper

import (
	"fmt"
	"reflect"

	"github.com/cogradio/crn/internal/aggfunc"
	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/cogcomp"
	"github.com/cogradio/crn/internal/faults"
	recov "github.com/cogradio/crn/internal/recover"
	"github.com/cogradio/crn/internal/rng"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/stats"
	"github.com/cogradio/crn/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "E26",
		Title: "Crash-restart recovery under temporary outages",
		Claim: "The epoch-checkpointed supervisor turns E20's stall-or-corrupt COGCOMP outcomes into exact aggregates at a bounded slot-overhead factor, degrading gracefully (explicit partial census, never a silent wrong answer) when nodes stay down past the retry budget.",
		Run:   runE26,
	})
	register(Experiment{
		ID:    "E27",
		Title: "Recovery overhead when fault-free",
		Claim: "With no faults injected, the supervised run is byte-identical to the classic runner — same slots, same tree, same mediators — so recovery costs nothing until a fault actually happens.",
		Run:   runE27,
	})
}

// runE26 re-runs E20's COGCOMP leg — same topology, same per-trial outage
// schedules — with the recovery supervisor enabled, and reports how many
// trials return the exact aggregate, how many degrade to an explicit
// partial census, and what the retries cost in slots relative to the
// fault-free row.
func runE26(cfg Config) ([]*Table, error) {
	const n, c, k = 32, 8, 2
	rates := []float64{0, 0.01, 0.03}
	if cfg.Quick {
		rates = []float64{0, 0.03}
	}
	const duration = 10
	t := &Table{
		Title:   fmt.Sprintf("E26: crash-restart recovery under E20's outages (duration %d slots, source protected; n=%d, c=%d, k=%d, partitioned)", duration, n, c, k),
		Claim:   "every settled trial is exact or explicitly degraded; slot overhead stays a bounded factor of the fault-free run",
		Columns: []string{"outage rate/slot", "exact", "degraded", "stalled", "median slots", "overhead", "median retries", "median restarts"},
	}
	trials := cfg.trials()
	type recResult struct {
		exact, degraded, stalled bool
		slots, retries, restarts float64
	}
	baseline := 0.0 // fault-free median, set by the rate-0 row
	for _, rate := range rates {
		results, err := forTrials(cfg, trials, func(trial int, a *arena) (recResult, error) {
			var out recResult
			// Same derivation as E20's COGCOMP leg: identical seeds give
			// identical assignments, inputs, and outage schedules.
			ts := rng.Derive(cfg.Seed, int64(rate*1000), int64(trial), 200)
			schedule, err := faults.NewRandomOutages(rate, duration, ts, 0)
			if err != nil {
				return out, err
			}
			asn, err := a.assign.Partitioned(n, c, k, assign.LocalLabels, ts)
			if err != nil {
				return out, err
			}
			if cfg.Trace != nil {
				cfg.Trace.Emit(trace.TrialEvent(trial, ts))
			}
			inputs := make([]int64, n)
			var want int64
			for i := range inputs {
				inputs[i] = int64(i + 1)
				want += inputs[i]
			}
			var sched faults.Schedule
			if rate > 0 {
				sched = schedule
			}
			res, err := a.rec.Run(asn, 0, inputs, ts, recov.Config{
				Config:   cfg.comp(cogcomp.Config{Trace: cfg.Trace}),
				Schedule: sched,
			})
			if err != nil {
				return out, err
			}
			switch {
			case res.Stalled:
				out.stalled = true
			case res.Complete:
				if res.Value != aggfunc.Value(want) {
					return out, fmt.Errorf("exper: E26 complete run returned %v, want %v", res.Value, want)
				}
				out.exact = true
			default:
				// Degraded: the value must still be the exact fold over
				// the reported contributors — partial, never corrupt.
				var partial int64
				for _, id := range res.Contributors {
					partial += inputs[id]
				}
				if res.Value != aggfunc.Value(partial) {
					return out, fmt.Errorf("exper: E26 degraded run returned %v, want partial %v", res.Value, partial)
				}
				out.degraded = true
			}
			out.slots = float64(res.TotalSlots)
			out.retries = float64(res.Retries)
			out.restarts = float64(res.Restarts)
			return out, nil
		})
		if err != nil {
			return nil, err
		}
		exact, degraded, stalled := 0, 0, 0
		slots := make([]float64, 0, trials)
		retries := make([]float64, 0, trials)
		restarts := make([]float64, 0, trials)
		for _, r := range results {
			switch {
			case r.exact:
				exact++
			case r.degraded:
				degraded++
			case r.stalled:
				stalled++
			}
			if !r.stalled {
				slots = append(slots, r.slots)
			}
			retries = append(retries, r.retries)
			restarts = append(restarts, r.restarts)
		}
		slotCell, overheadCell := "-", "-"
		if len(slots) > 0 {
			s, err := stats.Summarize(slots)
			if err != nil {
				return nil, err
			}
			slotCell = ftoa(s.Median)
			if rate == 0 {
				baseline = s.Median
			}
			if baseline > 0 {
				overheadCell = ftoa(stats.Ratio(s.Median, baseline))
			}
		}
		rs, err := stats.Summarize(retries)
		if err != nil {
			return nil, err
		}
		cs, err := stats.Summarize(restarts)
		if err != nil {
			return nil, err
		}
		t.AddRow(ftoa(rate), fmt.Sprintf("%d/%d", exact, trials), itoa(degraded), itoa(stalled),
			slotCell, overheadCell, ftoa(rs.Median), ftoa(cs.Median))
	}
	t.AddNote("compare the exact column with E20's: the same schedules that stall or corrupt the classic runner settle exactly here")
	t.AddNote("overhead is the settled-trial median divided by the fault-free (rate 0) median")
	return []*Table{t}, nil
}

// runE27 pits the classic runner against the supervisor on identical
// fault-free trials and asserts the results are byte-identical — value,
// slot counts, tree, mediators — so the overhead column must read 1.00.
func runE27(cfg Config) ([]*Table, error) {
	type point struct {
		name    string
		n, c, k int // k == 0 selects full overlap
	}
	points := []point{
		{"full overlap", 24, 6, 0},
		{"partitioned", 32, 8, 2},
		{"partitioned", 64, 8, 2},
	}
	if cfg.Quick {
		points = points[:2]
	}
	t := &Table{
		Title:   "E27: recovery overhead with no faults (classic runner vs supervisor, identical seeds)",
		Claim:   "supervised fault-free runs replay the classic slot sequence exactly: overhead 1.00, zero retries",
		Columns: []string{"assignment", "n", "c", "k", "classic median slots", "supervised median slots", "overhead", "identical"},
	}
	trials := cfg.trials()
	for _, p := range points {
		type pairResult struct {
			classic, supervised float64
			identical           bool
		}
		results, err := forTrials(cfg, trials, func(trial int, a *arena) (pairResult, error) {
			ts := rng.Derive(cfg.Seed, int64(p.n), int64(p.k), int64(trial), 260)
			var (
				asn sim.Assignment
				err error
			)
			if p.k == 0 {
				asn, err = a.assign.FullOverlap(p.n, p.c, assign.LocalLabels, ts)
			} else {
				asn, err = a.assign.Partitioned(p.n, p.c, p.k, assign.LocalLabels, ts)
			}
			if err != nil {
				return pairResult{}, err
			}
			inputs := a.experInputs(p.n, ts)
			classic, err := a.comp.Run(asn, 0, inputs, ts, cfg.comp(cogcomp.Config{}))
			if err != nil {
				return pairResult{}, err
			}
			// The classic result aliases arena scratch; the supervised run
			// below reuses the same arena nodes, so copy what we compare.
			cc := *classic
			cc.Parents = append([]sim.NodeID(nil), classic.Parents...)
			sup, err := a.rec.Run(asn, 0, inputs, ts, recov.Config{Config: cfg.comp(cogcomp.Config{})})
			if err != nil {
				return pairResult{}, err
			}
			if sup.Retries != 0 || sup.Reelections != 0 || sup.Restarts != 0 {
				return pairResult{}, fmt.Errorf("exper: E27 fault-free run reports recovery activity: %d retries, %d re-elections, %d restarts",
					sup.Retries, sup.Reelections, sup.Restarts)
			}
			if !reflect.DeepEqual(cc, sup.Result) {
				return pairResult{}, fmt.Errorf("exper: E27 supervised run diverged from classic at n=%d c=%d k=%d trial %d",
					p.n, p.c, p.k, trial)
			}
			return pairResult{
				classic:    float64(cc.TotalSlots),
				supervised: float64(sup.TotalSlots),
				identical:  true,
			}, nil
		})
		if err != nil {
			return nil, err
		}
		classics := make([]float64, 0, trials)
		superv := make([]float64, 0, trials)
		allSame := true
		for _, r := range results {
			classics = append(classics, r.classic)
			superv = append(superv, r.supervised)
			allSame = allSame && r.identical
		}
		csum, err := stats.Summarize(classics)
		if err != nil {
			return nil, err
		}
		ssum, err := stats.Summarize(superv)
		if err != nil {
			return nil, err
		}
		same := "yes"
		if !allSame {
			same = "NO"
		}
		t.AddRow(p.name, itoa(p.n), itoa(p.c), itoa(p.k),
			ftoa(csum.Median), ftoa(ssum.Median), ftoa(stats.Ratio(ssum.Median, csum.Median)), same)
	}
	t.AddNote("identity is asserted per trial (value, per-phase slots, tree, mediators); any divergence fails the experiment")
	return []*Table{t}, nil
}
