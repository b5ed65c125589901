package exper

import (
	"fmt"
	"math"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/baseline"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/rng"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/stats"
	"github.com/cogradio/crn/internal/trace"
)

// cogcastTrials runs COGCAST to completion `trials` times over assignments
// built per-trial and returns the summary of the slot counts. Trials run on
// cfg's worker pool; build receives the worker's assignment builder (ignore
// it for assignment kinds the builder does not cover) and each trial derives
// its state from the trial index alone, so the summary is identical at every
// parallelism level. When cfg.Trace is set each trial is bracketed by a
// trial-boundary event and streams its slot and protocol events into the
// sink (serially; see Config.Trace).
func cogcastTrials(cfg Config, trials int, seed int64, build func(b *assign.Builder, trialSeed int64) (sim.Assignment, error)) (stats.Summary, error) {
	slots, err := forTrials(cfg, trials, func(trial int, a *arena) (float64, error) {
		ts := rng.Derive(seed, int64(trial))
		asn, err := build(&a.assign, ts)
		if err != nil {
			return 0, err
		}
		if cfg.Trace != nil {
			cfg.Trace.Emit(trace.TrialEvent(trial, ts))
		}
		budget := 64 * cogcast.SlotBound(asn.Nodes(), asn.PerNode(), asn.MinOverlap(), cogcast.DefaultKappa)
		res, err := a.cast.Run(asn, 0, "m", ts, cfg.cast(cogcast.RunConfig{UntilAllInformed: true, MaxSlots: budget, Trace: cfg.Trace}))
		if err != nil {
			return 0, err
		}
		if !res.AllInformed {
			return 0, fmt.Errorf("exper: broadcast incomplete after %d slots", res.Slots)
		}
		return float64(res.Slots), nil
	})
	if err != nil {
		return stats.Summary{}, err
	}
	return stats.Summarize(slots)
}

func init() {
	register(Experiment{
		ID:    "E1",
		Title: "COGCAST completion time vs n (c <= n)",
		Claim: "Theorem 4: for c <= n COGCAST informs all nodes in O((c/k)·lg n) slots w.h.p.; median slots should fit (c/k)·lg n linearly.",
		Run:   runE1,
	})
	register(Experiment{
		ID:    "E2",
		Title: "COGCAST completion time vs c (c >= n)",
		Claim: "Theorem 4: for c >= n the bound is O((c²/(nk))·lg n); median slots should fit (c²/(nk))·lg n linearly.",
		Run:   runE2,
	})
	register(Experiment{
		ID:    "E3",
		Title: "COGCAST vs rendezvous broadcast",
		Claim: "Section 1: epidemic relaying beats the O((c²/k)·lg n) rendezvous baseline by roughly a factor of c when n >= c; the measured ratio should grow linearly in c.",
		Run:   runE3,
	})
	register(Experiment{
		ID:    "E10",
		Title: "COGCAST over dynamic channel assignments",
		Claim: "Theorem 17 discussion: COGCAST's guarantees are insensitive to per-slot re-drawn channel sets as long as pairwise overlap k persists; dynamic and static completion times should match within a small constant.",
		Run:   runE10,
	})
	register(Experiment{
		ID:    "E13",
		Title: "Epidemic stages and overlap-pattern robustness",
		Claim: "Section 4 analysis: the spread runs in two stages (fast doubling until ~c/2 informed, then a union-bound tail), and per-slot progress is Ω(k/c) for both extreme overlap patterns (one shared core vs pairwise-dedicated channels) — Claims 1-3.",
		Run:   runE13,
	})
}

func runE1(cfg Config) ([]*Table, error) {
	// The partitioned topology is the tight instance: every pair overlaps
	// on exactly k channels, so all information flows through the shared
	// core. (A shared-core topology with random extras has much larger
	// effective overlap and completes far below the bound.)
	const c, k = 16, 4
	ns := []int{64, 128, 256, 512, 1024}
	if cfg.Quick {
		ns = []int{32, 64, 128}
	}
	t := &Table{
		Title:   "E1a: COGCAST scaling in n (c=16, k=4, partitioned topology, local labels)",
		Claim:   "slots ~ (c/k)·lg n",
		Columns: []string{"n", "predictor (c/k)lg n", "median slots", "mean", "p90", "slots/predictor"},
	}
	var xs, ys []float64
	for _, n := range ns {
		s, err := cogcastTrials(cfg, cfg.trials(), rng.Derive(cfg.Seed, int64(n), 1), func(b *assign.Builder, ts int64) (sim.Assignment, error) {
			return b.Partitioned(n, c, k, assign.LocalLabels, ts)
		})
		if err != nil {
			return nil, err
		}
		x := float64(c) / float64(k) * math.Log2(float64(n))
		xs = append(xs, x)
		ys = append(ys, s.Median)
		t.AddRow(itoa(n), ftoa(x), ftoa(s.Median), ftoa(s.Mean), ftoa(s.P90), ftoa(stats.Ratio(s.Median, x)))
	}
	fit, err := stats.LinearFit(xs, ys)
	if err != nil {
		return nil, err
	}
	t.AddNote("linear fit slots = %.2f·[(c/k)lg n] + %.2f, R² = %.3f (theory: straight line, R² near 1)", fit.Slope, fit.Intercept, fit.R2)

	// E1b: the other axis of the bound — slots ~ c/k at fixed n.
	const n1b = 256
	kt := &Table{
		Title:   "E1b: COGCAST scaling in k (n=256, c=16, partitioned topology)",
		Claim:   "slots ~ c/k at fixed n",
		Columns: []string{"k", "predictor (c/k)lg n", "median slots", "slots/predictor"},
	}
	var kxs, kys []float64
	ks := []int{1, 2, 4, 8, 16}
	if cfg.Quick {
		ks = []int{2, 8}
	}
	for _, kk := range ks {
		s, err := cogcastTrials(cfg, cfg.trials(), rng.Derive(cfg.Seed, int64(kk), 11), func(b *assign.Builder, ts int64) (sim.Assignment, error) {
			return b.Partitioned(n1b, c, kk, assign.LocalLabels, ts)
		})
		if err != nil {
			return nil, err
		}
		x := float64(c) / float64(kk) * math.Log2(float64(n1b))
		kxs = append(kxs, x)
		kys = append(kys, s.Median)
		kt.AddRow(itoa(kk), ftoa(x), ftoa(s.Median), ftoa(stats.Ratio(s.Median, x)))
	}
	kfit, err := stats.LinearFit(kxs, kys)
	if err != nil {
		return nil, err
	}
	kt.AddNote("linear fit slots = %.2f·[(c/k)lg n] + %.2f, R² = %.3f", kfit.Slope, kfit.Intercept, kfit.R2)
	return []*Table{t, kt}, nil
}

func runE2(cfg Config) ([]*Table, error) {
	const n, k = 32, 4
	cs := []int{32, 64, 128, 256}
	if cfg.Quick {
		cs = []int{32, 64}
	}
	t := &Table{
		Title:   "E2: COGCAST scaling in c (n=32, k=4, partitioned topology, local labels)",
		Claim:   "slots ~ (c²/(nk))·lg n for c >= n",
		Columns: []string{"c", "predictor (c²/(nk))lg n", "median slots", "mean", "slots/predictor"},
	}
	var xs, ys []float64
	for _, c := range cs {
		s, err := cogcastTrials(cfg, cfg.trials(), rng.Derive(cfg.Seed, int64(c), 2), func(b *assign.Builder, ts int64) (sim.Assignment, error) {
			return b.Partitioned(n, c, k, assign.LocalLabels, ts)
		})
		if err != nil {
			return nil, err
		}
		x := float64(c) * float64(c) / (float64(n) * float64(k)) * math.Log2(float64(n))
		xs = append(xs, x)
		ys = append(ys, s.Median)
		t.AddRow(itoa(c), ftoa(x), ftoa(s.Median), ftoa(s.Mean), ftoa(stats.Ratio(s.Median, x)))
	}
	fit, err := stats.LinearFit(xs, ys)
	if err != nil {
		return nil, err
	}
	t.AddNote("linear fit slots = %.2f·[(c²/(nk))lg n] + %.2f, R² = %.3f", fit.Slope, fit.Intercept, fit.R2)
	return []*Table{t}, nil
}

func runE3(cfg Config) ([]*Table, error) {
	const n, k = 64, 2
	cs := []int{4, 8, 16, 32}
	if cfg.Quick {
		cs = []int{4, 8, 16}
	}
	t := &Table{
		Title:   "E3: COGCAST vs rendezvous broadcast (n=64, k=2, partitioned topology)",
		Claim:   "rendezvous/COGCAST slot ratio grows ~linearly in c",
		Columns: []string{"c", "COGCAST median", "rendezvous median", "ratio"},
	}
	var xs, ratios []float64
	for _, c := range cs {
		seed := rng.Derive(cfg.Seed, int64(c), 3)
		cog, err := cogcastTrials(cfg, cfg.trials(), seed, func(b *assign.Builder, ts int64) (sim.Assignment, error) {
			return b.Partitioned(n, c, k, assign.LocalLabels, ts)
		})
		if err != nil {
			return nil, err
		}
		rdvSlots, err := forTrials(cfg, cfg.trials(), func(trial int, a *arena) (float64, error) {
			ts := rng.Derive(seed, int64(trial), 4)
			asn, err := a.assign.Partitioned(n, c, k, assign.LocalLabels, ts)
			if err != nil {
				return 0, err
			}
			res, err := baseline.RendezvousBroadcast(asn, 0, "m", ts, 4_000_000)
			if err != nil {
				return 0, err
			}
			if !res.AllInformed {
				return 0, fmt.Errorf("exper: rendezvous incomplete at c=%d", c)
			}
			return float64(res.Slots), nil
		})
		if err != nil {
			return nil, err
		}
		rdv, err := stats.Summarize(rdvSlots)
		if err != nil {
			return nil, err
		}
		ratio := stats.Ratio(rdv.Median, cog.Median)
		xs = append(xs, float64(c))
		ratios = append(ratios, ratio)
		t.AddRow(itoa(c), ftoa(cog.Median), ftoa(rdv.Median), ftoa(ratio))
	}
	fit, err := stats.LinearFit(xs, ratios)
	if err != nil {
		return nil, err
	}
	t.AddNote("ratio fit: %.2f·c + %.2f, R² = %.3f (theory: ratio = Θ(c))", fit.Slope, fit.Intercept, fit.R2)
	return []*Table{t}, nil
}

func runE10(cfg Config) ([]*Table, error) {
	const c, k, total = 8, 2, 24
	ns := []int{32, 64, 128, 256}
	if cfg.Quick {
		ns = []int{32, 64}
	}
	t := &Table{
		Title:   "E10: static vs dynamic channel assignments (c=8, k=2, C=24)",
		Claim:   "COGCAST completion is unaffected by per-slot re-drawn sets (same k-overlap)",
		Columns: []string{"n", "static median", "dynamic median", "dynamic/static"},
	}
	for _, n := range ns {
		seed := rng.Derive(cfg.Seed, int64(n), 10)
		static, err := cogcastTrials(cfg, cfg.trials(), seed, func(b *assign.Builder, ts int64) (sim.Assignment, error) {
			return b.SharedCore(n, c, k, total, assign.LocalLabels, ts)
		})
		if err != nil {
			return nil, err
		}
		dynamic, err := cogcastTrials(cfg, cfg.trials(), rng.Derive(seed, 1), func(_ *assign.Builder, ts int64) (sim.Assignment, error) {
			return assign.NewDynamic(n, c, k, total, ts)
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(itoa(n), ftoa(static.Median), ftoa(dynamic.Median), ftoa(stats.Ratio(dynamic.Median, static.Median)))
	}
	t.AddNote("theory predicts a ratio that is a constant independent of n")
	return []*Table{t}, nil
}

func runE13(cfg Config) ([]*Table, error) {
	stages := &Table{
		Title:   "E13a: epidemic stages (n=256, c=16, k=4, partitioned topology)",
		Claim:   "stage 1 (until c/2 informed) and stage 2 (remaining nodes) are both O((c/k)·lg n)",
		Columns: []string{"trial", "slots to c/2 informed", "slots to all informed", "stage2 share"},
	}
	const n, c, k = 256, 16, 4
	trials := cfg.trials()
	if cfg.Quick && trials > 5 {
		trials = 5
	}
	type stageResult struct{ stage1, total int }
	results, err := forTrials(cfg, trials, func(trial int, a *arena) (stageResult, error) {
		ts := rng.Derive(cfg.Seed, int64(trial), 13)
		asn, err := a.assign.Partitioned(n, c, k, assign.LocalLabels, ts)
		if err != nil {
			return stageResult{}, err
		}
		budget := 64 * cogcast.SlotBound(n, c, k, cogcast.DefaultKappa)
		res, err := a.cast.Run(asn, 0, "m", ts, cfg.cast(cogcast.RunConfig{UntilAllInformed: true, MaxSlots: budget, Trajectory: true}))
		if err != nil {
			return stageResult{}, err
		}
		if !res.AllInformed {
			return stageResult{}, fmt.Errorf("exper: E13 broadcast incomplete")
		}
		stage1 := res.Slots
		for s, informed := range res.Trajectory {
			if informed >= c/2 {
				stage1 = s + 1
				break
			}
		}
		return stageResult{stage1: stage1, total: res.Slots}, nil
	})
	if err != nil {
		return nil, err
	}
	var stage1s, totals []float64
	for trial, r := range results {
		stage1s = append(stage1s, float64(r.stage1))
		totals = append(totals, float64(r.total))
		stages.AddRow(itoa(trial), itoa(r.stage1), itoa(r.total), ftoa(1-float64(r.stage1)/float64(r.total)))
	}
	s1, err := stats.Summarize(stage1s)
	if err != nil {
		return nil, err
	}
	st, err := stats.Summarize(totals)
	if err != nil {
		return nil, err
	}
	stages.AddNote("stage 1 median %.1f slots, total median %.1f; both bounded by O((c/k)lg n) = %.1f·κ",
		s1.Median, st.Median, float64(c)/float64(k)*math.Log2(float64(n)))

	patterns := &Table{
		Title:   "E13b: overlap-pattern robustness (n=9, c=8, k=1)",
		Claim:   "Claim 2 covers both extremes: one shared core (congested overlap) vs pairwise-dedicated channels (spread overlap); completion times should be the same order",
		Columns: []string{"topology", "median slots", "mean", "p90"},
	}
	core, err := cogcastTrials(cfg, cfg.trials(), rng.Derive(cfg.Seed, 131), func(b *assign.Builder, ts int64) (sim.Assignment, error) {
		return b.SharedCore(9, 8, 1, 36, assign.LocalLabels, ts)
	})
	if err != nil {
		return nil, err
	}
	pair, err := cogcastTrials(cfg, cfg.trials(), rng.Derive(cfg.Seed, 132), func(b *assign.Builder, ts int64) (sim.Assignment, error) {
		return b.PairwiseDedicated(9, 8, 1, assign.LocalLabels, ts)
	})
	if err != nil {
		return nil, err
	}
	patterns.AddRow("shared-core", ftoa(core.Median), ftoa(core.Mean), ftoa(core.P90))
	patterns.AddRow("pairwise-dedicated", ftoa(pair.Median), ftoa(pair.Mean), ftoa(pair.P90))
	patterns.AddNote("ratio of medians = %.2f (theory: Θ(1))", stats.Ratio(pair.Median, core.Median))
	return []*Table{stages, patterns}, nil
}
