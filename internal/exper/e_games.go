package exper

import (
	"fmt"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/games"
	"github.com/cogradio/crn/internal/rng"
	"github.com/cogradio/crn/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E6",
		Title: "(c,k)-bipartite hitting game lower bound",
		Claim: "Lemma 11: no player wins within c²/(αk) rounds with probability >= 1/2 (α = 2(β/(β−1))², β = c/k, k <= c/2).",
		Run:   runE6,
	})
	register(Experiment{
		ID:    "E7",
		Title: "Lemma 12 reduction and the c-complete game",
		Claim: "A broadcast algorithm yields a hitting-game player spending <= min{c,n} proposals per simulated slot (Lemma 12); the c-complete game needs >= c/3 rounds for win probability 1/2 (Lemma 14).",
		Run:   runE7,
	})
	register(Experiment{
		ID:    "E8",
		Title: "Global-label expected lower bound Ω(c/k)",
		Claim: "Theorem 16: with the partitioned setup, any strategy needs (c+1)/(k+1) expected slots before the source even lands on an overlapping channel.",
		Run:   runE8,
	})
}

func runE6(cfg Config) ([]*Table, error) {
	type point struct{ c, k int }
	points := []point{{20, 2}, {32, 4}, {64, 4}}
	if cfg.Quick {
		points = []point{{20, 2}}
	}
	trials := 400
	if cfg.Quick {
		trials = 150
	}
	t := &Table{
		Title:   "E6: win probability within the Lemma 11 bound l = c²/(αk)",
		Claim:   "both players stay below 1/2",
		Columns: []string{"c", "k", "bound l", "P(win) uniform", "P(win) non-repeating", "verdict"},
	}
	for _, p := range points {
		bound := games.LowerBoundRounds(p.c, p.k)
		seed := rng.Derive(cfg.Seed, int64(p.c), int64(p.k), 6)
		pu, err := games.WinProbability(p.c, p.k, bound, trials, seed, func(tr int64) games.Player {
			return games.NewUniformPlayer(p.c, rng.Derive(seed, tr, 1))
		})
		if err != nil {
			return nil, err
		}
		pn, err := games.WinProbability(p.c, p.k, bound, trials, seed, func(tr int64) games.Player {
			return games.NewNonRepeatingPlayer(p.c, rng.Derive(seed, tr, 2))
		})
		if err != nil {
			return nil, err
		}
		verdict := "holds"
		if pu >= 0.5 || pn >= 0.5 {
			verdict = "VIOLATED"
		}
		t.AddRow(itoa(p.c), itoa(p.k), itoa(bound), ftoa(pu), ftoa(pn), verdict)
	}
	return []*Table{t}, nil
}

func runE7(cfg Config) ([]*Table, error) {
	type point struct{ c, k, n int }
	points := []point{{12, 3, 8}, {16, 4, 32}, {32, 4, 16}}
	if cfg.Quick {
		points = []point{{12, 3, 8}}
	}
	trials := cfg.trials()
	red := &Table{
		Title:   "E7a: COGCAST-as-player via the Lemma 12 reduction",
		Claim:   "game rounds <= min{c,n} · simulated slots, and the player always wins",
		Columns: []string{"c", "k", "n", "median rounds", "median slots", "min{c,n}·slots", "Lemma 11 bound"},
	}
	for _, p := range points {
		type gameResult struct{ rounds, slots float64 }
		results, err := forTrials(cfg, trials, func(trial int, _ *arena) (gameResult, error) {
			ts := rng.Derive(cfg.Seed, int64(p.c), int64(p.n), int64(trial), 7)
			g, err := games.NewGame(p.c, p.k, ts)
			if err != nil {
				return gameResult{}, err
			}
			player := games.NewReductionPlayer(games.NewCogcastChooser(p.n, p.c, ts))
			won, r := g.Play(player, 10_000_000)
			if !won {
				return gameResult{}, fmt.Errorf("exper: reduction player lost at c=%d k=%d n=%d", p.c, p.k, p.n)
			}
			if lim := min(p.c, p.n) * player.SimulatedSlots(); r > lim {
				return gameResult{}, fmt.Errorf("exper: Lemma 12 accounting violated: %d rounds > %d", r, lim)
			}
			return gameResult{rounds: float64(r), slots: float64(player.SimulatedSlots())}, nil
		})
		if err != nil {
			return nil, err
		}
		rounds := make([]float64, 0, trials)
		slots := make([]float64, 0, trials)
		for _, r := range results {
			rounds = append(rounds, r.rounds)
			slots = append(slots, r.slots)
		}
		rs, err := stats.Summarize(rounds)
		if err != nil {
			return nil, err
		}
		ss, err := stats.Summarize(slots)
		if err != nil {
			return nil, err
		}
		red.AddRow(itoa(p.c), itoa(p.k), itoa(p.n),
			ftoa(rs.Median), ftoa(ss.Median),
			ftoa(float64(min(p.c, p.n))*ss.Median),
			itoa(games.LowerBoundRounds(p.c, p.k)))
	}
	red.AddNote("median rounds must sit between the Lemma 11 bound and min{c,n}·slots")

	complete := &Table{
		Title:   "E7b: c-complete bipartite hitting game (k = c)",
		Claim:   "win probability within c/3 rounds stays below 1/2",
		Columns: []string{"c", "bound c/3", "P(win) non-repeating", "verdict"},
	}
	cs := []int{30, 60}
	if cfg.Quick {
		cs = []int{30}
	}
	gameTrials := 400
	if cfg.Quick {
		gameTrials = 150
	}
	for _, c := range cs {
		bound := games.CompleteLowerBoundRounds(c)
		p, err := games.WinProbability(c, c, bound, gameTrials, rng.Derive(cfg.Seed, int64(c), 8),
			func(tr int64) games.Player {
				return games.NewNonRepeatingPlayer(c, rng.Derive(cfg.Seed, tr, 9))
			})
		if err != nil {
			return nil, err
		}
		verdict := "holds"
		if p >= 0.5 {
			verdict = "VIOLATED"
		}
		complete.AddRow(itoa(c), itoa(bound), ftoa(p), verdict)
	}
	return []*Table{red, complete}, nil
}

func runE8(cfg Config) ([]*Table, error) {
	const c, n = 16, 16
	ks := []int{1, 2, 4, 8}
	if cfg.Quick {
		ks = []int{1, 4}
	}
	trials := 400
	if cfg.Quick {
		trials = 100
	}
	t := &Table{
		Title:   "E8: slots until the source first lands on an overlapping channel (c=16, partitioned setup)",
		Claim:   "expectation >= (c+1)/(k+1) regardless of strategy",
		Columns: []string{"k", "theory (c+1)/(k+1)", "mean uniform", "mean sequential scan", "COGCAST first-contact mean"},
	}
	for _, k := range ks {
		theory := float64(c+1) / float64(k+1)
		// Direct measurement: the k overlapping channels sit at uniformly
		// random local positions among the source's c channels. Count the
		// picks a strategy makes before hitting one.
		type landing struct{ uniform, seq float64 }
		landings, err := forTrials(cfg, trials, func(trial int, _ *arena) (landing, error) {
			r := rng.New(cfg.Seed, int64(k), int64(trial), 80)
			positions := r.Perm(c)[:k]
			inCore := make(map[int]bool, k)
			for _, p := range positions {
				inCore[p] = true
			}
			picks := 1
			for !inCore[r.Intn(c)] {
				picks++
			}
			seq := c
			for i := 0; i < c; i++ {
				if inCore[i] {
					seq = i + 1
					break
				}
			}
			return landing{uniform: float64(picks), seq: float64(seq)}, nil
		})
		if err != nil {
			return nil, err
		}
		var uniformSum, seqSum float64
		for _, l := range landings {
			uniformSum += l.uniform
			seqSum += l.seq
		}
		// System tie-in: in a real partitioned network, the first node can
		// only be informed at or after the source's first overlap landing.
		// The expectation bound needs decent sample sizes; medians of a few
		// trials of this heavy-tailed quantity mislead.
		contactTrials := 60
		if cfg.Quick {
			contactTrials = 20
		}
		contact, err := forTrials(cfg, contactTrials, func(trial int, a *arena) (float64, error) {
			ts := rng.Derive(cfg.Seed, int64(k), int64(trial), 81)
			asn, err := a.assign.Partitioned(n, c, k, assign.GlobalLabels, ts)
			if err != nil {
				return 0, err
			}
			budget := 64 * cogcast.SlotBound(n, c, k, cogcast.DefaultKappa)
			res, err := a.cast.Run(asn, 0, "m", ts, cfg.cast(cogcast.RunConfig{UntilAllInformed: true, MaxSlots: budget, Trajectory: true}))
			if err != nil {
				return 0, err
			}
			first := res.Slots
			for s, informed := range res.Trajectory {
				if informed > 1 {
					first = s + 1
					break
				}
			}
			return float64(first), nil
		})
		if err != nil {
			return nil, err
		}
		cs, err := stats.Summarize(contact)
		if err != nil {
			return nil, err
		}
		t.AddRow(itoa(k), ftoa(theory), ftoa(uniformSum/float64(trials)), ftoa(seqSum/float64(trials)), ftoa(cs.Mean))
	}
	t.AddNote("the measured means track (c+1)/(k+1) for both strategies; mean first contact in the live system is necessarily at least the landing time")
	return []*Table{t}, nil
}
