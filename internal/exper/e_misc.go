package exper

import (
	"fmt"
	"math"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/backoff"
	"github.com/cogradio/crn/internal/baseline"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/jamming"
	"github.com/cogradio/crn/internal/rng"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E9",
		Title: "Hopping-together vs COGCAST under global labels",
		Claim: "Section 6 discussion: with global labels and c >> n (c = n², k = c−1) the lockstep scan finishes in O(C/k) = O(1) expected slots while COGCAST needs Θ((c²/(nk))·lg n); for n >> c the ordering flips.",
		Run:   runE9,
	})
	register(Experiment{
		ID:    "E11",
		Title: "Jamming-resistant broadcast (Theorem 18)",
		Claim: "COGCAST over the unjammed spectrum completes with the guarantees of T(n, c, c−2·kJam) against any n-uniform adversary jamming kJam < c/2 channels per node per slot.",
		Run:   runE11,
	})
	register(Experiment{
		ID:    "E12",
		Title: "Backoff implementation of the collision abstraction",
		Claim: "Footnote 4: decaying-probability backoff resolves m-way contention in O(log² n) micro-slots w.h.p.",
		Run:   runE12,
	})
}

func runE9(cfg Config) ([]*Table, error) {
	type point struct {
		label   string
		n, c, k int
	}
	points := []point{
		{"c >> n (c=n², k=c-1)", 8, 64, 63},
		{"n >> c", 64, 8, 2},
	}
	if cfg.Quick {
		points = points[:1]
	}
	t := &Table{
		Title:   "E9: hopping-together (global labels) vs COGCAST (local labels), partitioned topology",
		Claim:   "hopping-together wins for c >> n; COGCAST wins for n >> c",
		Columns: []string{"regime", "n", "c", "k", "C", "hop median", "COGCAST median", "winner"},
	}
	for _, p := range points {
		seed := rng.Derive(cfg.Seed, int64(p.n), int64(p.c), 90)
		totalCh := p.k + p.n*(p.c-p.k)
		type regimeResult struct{ hop, cog float64 }
		results, err := forTrials(cfg, cfg.trials(), func(trial int, a *arena) (regimeResult, error) {
			ts := rng.Derive(seed, int64(trial))
			gAsn, err := a.assign.Partitioned(p.n, p.c, p.k, assign.GlobalLabels, ts)
			if err != nil {
				return regimeResult{}, err
			}
			hop, err := baseline.HoppingTogether(gAsn, 0, "m", ts, 1_000_000)
			if err != nil {
				return regimeResult{}, err
			}
			if !hop.AllInformed {
				return regimeResult{}, fmt.Errorf("exper: hopping-together incomplete in regime %q", p.label)
			}

			// Rebuilding invalidates gAsn, which the hop run is done with.
			lAsn, err := a.assign.Partitioned(p.n, p.c, p.k, assign.LocalLabels, ts)
			if err != nil {
				return regimeResult{}, err
			}
			budget := 64 * cogcast.SlotBound(p.n, p.c, p.k, cogcast.DefaultKappa)
			cog, err := a.cast.Run(lAsn, 0, "m", ts, cfg.cast(cogcast.RunConfig{UntilAllInformed: true, MaxSlots: budget}))
			if err != nil {
				return regimeResult{}, err
			}
			if !cog.AllInformed {
				return regimeResult{}, fmt.Errorf("exper: COGCAST incomplete in regime %q", p.label)
			}
			return regimeResult{hop: float64(hop.Slots), cog: float64(cog.Slots)}, nil
		})
		if err != nil {
			return nil, err
		}
		hopSlots := make([]float64, 0, cfg.trials())
		cogSlots := make([]float64, 0, cfg.trials())
		for _, r := range results {
			hopSlots = append(hopSlots, r.hop)
			cogSlots = append(cogSlots, r.cog)
		}
		hs, err := stats.Summarize(hopSlots)
		if err != nil {
			return nil, err
		}
		cs, err := stats.Summarize(cogSlots)
		if err != nil {
			return nil, err
		}
		winner := "hopping-together"
		if cs.Median < hs.Median {
			winner = "COGCAST"
		}
		t.AddRow(p.label, itoa(p.n), itoa(p.c), itoa(p.k), itoa(totalCh), ftoa(hs.Median), ftoa(cs.Median), winner)
	}
	t.AddNote("hopping-together requires global labels; in the local-label model it does not exist, which is why the Theorem 15 bound is higher than Theorem 16's")
	return []*Table{t}, nil
}

func runE11(cfg Config) ([]*Table, error) {
	// c > n makes the completion time sensitive to the overlap: with many
	// nodes per channel the epidemic saturates and jamming is invisible.
	const n, c = 8, 16
	budgets := []int{0, 2, 4, 7}
	if cfg.Quick {
		budgets = []int{0, 4}
	}
	t := &Table{
		Title:   "E11: COGCAST completion under n-uniform jamming (n=8, c=16)",
		Claim:   "slots track SlotBound(n, c, c−2·kJam)",
		Columns: []string{"kJam", "k = c-2kJam", "random median", "sweep median", "block median", "split median", "reference (c/k)(c/n)lg n"},
	}
	for _, kj := range budgets {
		k := c - 2*kj
		ref := float64(c) / float64(k) * math.Max(1, float64(c)/float64(n)) * math.Log2(float64(n))
		row := []string{itoa(kj), itoa(k)}
		jammers := []func(ts int64) jamming.Jammer{
			func(ts int64) jamming.Jammer { return jamming.NewRandomJammer(c, kj, ts) },
			func(int64) jamming.Jammer { return jamming.NewSweepJammer(c, kj) },
			func(int64) jamming.Jammer { return jamming.NewBlockSweepJammer(c, kj, 8) },
			func(int64) jamming.Jammer { return jamming.NewSplitJammer(c, kj, 4) },
		}
		for _, build := range jammers {
			s, err := cogcastTrials(cfg, cfg.trials(), rng.Derive(cfg.Seed, int64(kj), 110), func(_ *assign.Builder, ts int64) (sim.Assignment, error) {
				return jamming.NewAssignment(n, c, kj, build(ts), ts)
			})
			if err != nil {
				return nil, err
			}
			row = append(row, ftoa(s.Median))
		}
		row = append(row, ftoa(ref))
		t.AddRow(row...)
	}
	t.AddNote("all adversaries jam kJam channels per node per slot; completion degrades only through the reduced overlap c−2·kJam")
	return []*Table{t}, nil
}

func runE12(cfg Config) ([]*Table, error) {
	const nUpper = 1024
	ms := []int{1, 2, 8, 64, 512, 1024}
	if cfg.Quick {
		ms = []int{1, 8, 64}
	}
	trials := 300
	if cfg.Quick {
		trials = 100
	}
	t := &Table{
		Title:   fmt.Sprintf("E12: decay backoff micro-slots to resolve m-way contention (n upper bound %d)", nUpper),
		Claim:   "mean stays within the O(log² n) budget for every m",
		Columns: []string{"m contenders", "mean", "median", "p99", "bound 4·(lg n +1)²", "failures"},
	}
	bound := backoff.TheoreticalBound(nUpper)
	for _, m := range ms {
		type resolveResult struct {
			micro     float64
			succeeded bool
		}
		results, err := forTrials(cfg, trials, func(trial int, _ *arena) (resolveResult, error) {
			res, err := backoff.Resolve(m, nUpper, rng.Derive(cfg.Seed, int64(m), int64(trial), 120))
			if err != nil {
				return resolveResult{}, err
			}
			return resolveResult{micro: float64(res.MicroSlots), succeeded: res.Succeeded}, nil
		})
		if err != nil {
			return nil, err
		}
		micro := make([]float64, 0, trials)
		failures := 0
		for _, r := range results {
			if !r.succeeded {
				failures++
				continue
			}
			micro = append(micro, r.micro)
		}
		s, err := stats.Summarize(micro)
		if err != nil {
			return nil, err
		}
		t.AddRow(itoa(m), ftoa(s.Mean), ftoa(s.Median), ftoa(s.P99), itoa(bound), itoa(failures))
	}
	t.AddNote("the simulator's one-winner collision model charges a single slot for what backoff implements in O(log² n) micro-slots; multiply slot counts by this factor for a radio-level cost estimate")
	return []*Table{t}, nil
}
