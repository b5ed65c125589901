package exper

import (
	"fmt"

	"github.com/cogradio/crn/internal/aggfunc"
	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/cogcomp"
	"github.com/cogradio/crn/internal/rng"
	"github.com/cogradio/crn/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E25",
		Title: "Amortized aggregation sessions (extension)",
		Claim: "Extension: the paper's periodic-snapshot motivation implies repeated aggregation over one static network; reusing the tree (phases 1-3 once, phase 4 per round) drives the per-round cost toward the convergecast window alone.",
		Run:   runE25,
	})
}

func runE25(cfg Config) ([]*Table, error) {
	const n, c, k = 64, 8, 2
	roundCounts := []int{1, 2, 4, 8, 16}
	if cfg.Quick {
		roundCounts = []int{1, 4}
	}
	t := &Table{
		Title:   fmt.Sprintf("E25: session vs independent runs, per-round slot cost (n=%d, c=%d, k=%d, shared-core)", n, c, k),
		Claim:   "with a profiled round window, session per-round cost falls well below independent runs as rounds grow",
		Columns: []string{"rounds", "tuned window (slots)", "session slots/round", "independent slots/round", "amortization gain"},
	}
	for _, rc := range roundCounts {
		type sessionResult struct {
			sessionPer, independentPer float64
			windowSlots                int
		}
		results, err := forTrials(cfg, cfg.trials(), func(trial int, a *arena) (sessionResult, error) {
			ts := rng.Derive(cfg.Seed, int64(rc), int64(trial), 250)
			asn, err := a.assign.SharedCore(n, c, k, 24, assign.LocalLabels, ts)
			if err != nil {
				return sessionResult{}, err
			}
			// All rounds must stay alive at once, so the rounds use the
			// allocating package experInputs rather than the arena scratch.
			rounds := make([][]int64, rc)
			for r := range rounds {
				rounds[r] = experInputs(n, rng.Derive(ts, int64(r)))
			}
			// Profile: one probe round with the safe worst-case window
			// yields the actual step requirement; run the real session with
			// a 2x-margin tuned window (the strategy a deployment would
			// use, with incompleteness detection as the safety net). The
			// probe's FinishSteps alias arena backing, so read them before
			// the next session run reuses it.
			probe, err := a.comp.RunRounds(asn, 0, rounds[:1], ts, cfg.session(cogcomp.SessionConfig{}))
			if err != nil {
				return sessionResult{}, err
			}
			tuned := 2*probe.FinishSteps[0] + 8
			res, err := a.comp.RunRounds(asn, 0, rounds, ts, cfg.session(cogcomp.SessionConfig{RoundSteps: tuned}))
			if err != nil {
				return sessionResult{}, err
			}
			// res.Values also alias the arena; verify before the single runs
			// below recycle the per-node backing.
			for r := range rounds {
				if want := aggfunc.Fold(aggfunc.Sum{}, rounds[r]); res.Values[r] != want {
					return sessionResult{}, fmt.Errorf("exper: E25 round %d aggregate mismatch", r)
				}
			}

			total := 0
			for r := range rounds {
				single, err := a.comp.Run(asn, 0, rounds[r], rng.Derive(ts, int64(r), 1), cfg.comp(cogcomp.Config{}))
				if err != nil {
					return sessionResult{}, err
				}
				total += single.TotalSlots
			}
			return sessionResult{
				sessionPer:     float64(res.TotalSlots) / float64(rc),
				independentPer: float64(total) / float64(rc),
				windowSlots:    res.RoundSlots,
			}, nil
		})
		if err != nil {
			return nil, err
		}
		sessionPer := make([]float64, 0, cfg.trials())
		independentPer := make([]float64, 0, cfg.trials())
		var windowSlots int
		for _, r := range results {
			sessionPer = append(sessionPer, r.sessionPer)
			independentPer = append(independentPer, r.independentPer)
			windowSlots = r.windowSlots
		}
		ss, err := stats.Summarize(sessionPer)
		if err != nil {
			return nil, err
		}
		is, err := stats.Summarize(independentPer)
		if err != nil {
			return nil, err
		}
		t.AddRow(itoa(rc), itoa(windowSlots), ftoa(ss.Median), ftoa(is.Median),
			ftoa(stats.Ratio(is.Median, ss.Median)))
	}
	t.AddNote("gain approaches (setup + round)/round as rounds grow; every session round was verified exact")
	return []*Table{t}, nil
}
