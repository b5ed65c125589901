package exper

import (
	"fmt"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/backoff"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/rng"
)

func init() {
	register(Experiment{
		ID:    "E24",
		Title: "End-to-end radio cost of the collision abstraction",
		Claim: "Footnote 4 accounting: replacing every abstract slot with a decay-backoff micro-slot window multiplies COGCAST's cost by the window size; the measured per-slot requirement sits far below the 4(lg n+1)² worst-case budget, so an implementation can pick a much smaller fixed window.",
		Run:   runE24,
	})
}

func runE24(cfg Config) ([]*Table, error) {
	const c, k = 8, 2
	ns := []int{32, 128, 512}
	if cfg.Quick {
		ns = []int{32, 128}
	}
	t := &Table{
		Title:   "E24: per-slot micro-slot window required by COGCAST runs (partitioned, c=8, k=2)",
		Claim:   "required window << theoretical budget; abstract slot counts scale to radio cost by the window",
		Columns: []string{"n", "slots", "mean window", "p99 window", "max window", "budget 4(lg n+1)²", "radio cost (slots × max)"},
	}
	type costResult struct {
		slots      int
		meanWindow float64
		required   int
		p99        int
	}
	for _, n := range ns {
		// One representative run per n at full trial count would repeat
		// near-identical histograms; aggregate across trials instead.
		results, err := forTrials(cfg, cfg.trials(), func(trial int, a *arena) (costResult, error) {
			ts := rng.Derive(cfg.Seed, int64(n), int64(trial), 240)
			asn, err := a.assign.Partitioned(n, c, k, assign.LocalLabels, ts)
			if err != nil {
				return costResult{}, err
			}
			obs := backoff.NewCostObserver(n, ts)
			res, err := a.cast.Run(asn, 0, "m", ts, cfg.cast(cogcast.RunConfig{
				UntilAllInformed: true, MaxSlots: 200000, Observer: obs,
			}))
			if err != nil {
				return costResult{}, err
			}
			if !res.AllInformed {
				return costResult{}, fmt.Errorf("exper: E24 broadcast incomplete at n=%d", n)
			}
			cost := obs.Snapshot()
			if cost.Failures > 0 {
				return costResult{}, fmt.Errorf("exper: E24 decay failures at n=%d", n)
			}
			return costResult{
				slots: cost.Slots, meanWindow: cost.MeanWindow,
				required: cost.RequiredWindow, p99: obs.WindowQuantile(0.99),
			}, nil
		})
		if err != nil {
			return nil, err
		}
		totalSlots := 0
		var meanSum float64
		maxWindow, p99 := 0, 0
		for _, r := range results {
			totalSlots += r.slots
			meanSum += r.meanWindow
			if r.required > maxWindow {
				maxWindow = r.required
			}
			if r.p99 > p99 {
				p99 = r.p99
			}
		}
		budget := backoff.TheoreticalBound(n)
		mean := meanSum / float64(cfg.trials())
		t.AddRow(itoa(n), itoa(totalSlots/cfg.trials()), ftoa(mean), itoa(p99), itoa(maxWindow),
			itoa(budget), itoa((totalSlots/cfg.trials())*maxWindow))
		if maxWindow > budget {
			t.AddNote("UNEXPECTED: required window exceeded the theoretical budget at n=%d", n)
		}
	}
	t.AddNote("channels resolve in parallel, so a slot costs the max over its channels; the fixed window an implementation must provision is the max column, still well under the worst-case budget")
	return []*Table{t}, nil
}
