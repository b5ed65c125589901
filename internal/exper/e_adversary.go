package exper

import (
	"fmt"

	"github.com/cogradio/crn/internal/adversary"
	"github.com/cogradio/crn/internal/games"
)

func init() {
	register(Experiment{
		ID:    "E30",
		Title: "Reactive adversary tournament under an energy budget",
		Claim: "Section 7 discussion, sharpened: against energy-bounded reactive adversaries COGCAST degrades gracefully (the Theorem 18 reduction absorbs adaptive jamming as shrunken overlap), unsupervised COGCOMP is brittle, and the recovery supervisor restores completion at a slot-overhead cost — with the phase-boundary crasher costing supervised COGCOMP strictly more than oblivious outages of equal energy.",
		Run:   runE30,
	})
}

func runE30(cfg Config) ([]*Table, error) {
	n, c, trials := 32, 8, cfg.trials()
	budget := adversary.Budget{PerSlot: 3, Total: 240}
	if cfg.Quick {
		n = 24
		trials = minInt(trials, 5)
		budget.Total = 160
	}
	tour := games.Tournament{
		Nodes: n, Channels: c,
		Trials:  trials,
		Budget:  budget,
		Seed:    rng300(cfg.Seed),
		Workers: cfg.workers(),
		Shards:  cfg.Shards,
		Check:   cfg.Check,
		Context: cfg.Context,
	}
	res, err := games.RunTournament(tour)
	if err != nil {
		return nil, err
	}

	var tables []*Table
	for _, arm := range []struct {
		config string
		claim  string
	}{
		{games.ArmCogcastJam, "reactive jammers slow the epidemic but cannot stop it (overlap stays >= c-2k)"},
		{games.ArmCogcompBare, "without supervision, targeted crash-restarts stall or corrupt the phases"},
		{games.ArmCogcompRecover, "the supervisor converts failures into slot overhead; targeted boundary attacks cost the most"},
	} {
		t := &Table{
			Title: fmt.Sprintf("E30: %s vs the adversary population (n=%d, c=%d, per-slot %d, reserve %d, %d trials; ranked by damage)",
				arm.config, n, c, budget.PerSlot, budget.Total, trials),
			Claim:   arm.claim,
			Columns: []string{"adversary", "completions", "degraded", "stalled", "median slots", "overhead", "energy spent", "exhausted"},
		}
		for _, d := range res.ByConfig(arm.config) {
			overhead := "-"
			if d.Overhead > 0 {
				overhead = ftoa(d.Overhead)
			}
			median := "-"
			if d.MedianSlots > 0 {
				median = ftoa(d.MedianSlots)
			}
			t.AddRow(d.Strategy, fmt.Sprintf("%d/%d", d.Completions, d.Trials),
				itoa(d.Degraded), itoa(d.Stalled), median, overhead,
				ftoa(d.EnergySpent), itoa(d.Exhausted))
		}
		tables = append(tables, t)
	}

	// The acceptance comparison: on the supervised arm, the phase-boundary
	// crasher against E26-style oblivious outages at the same energy budget.
	sup := tables[len(tables)-1]
	var crasher, oblivious *games.Duel
	for _, d := range res.ByConfig(games.ArmCogcompRecover) {
		d := d
		switch d.Strategy {
		case "crasher":
			crasher = &d
		case "oblivious":
			oblivious = &d
		}
	}
	if crasher != nil && oblivious != nil {
		worse := crasher.Completions < oblivious.Completions ||
			(crasher.Completions == oblivious.Completions && crasher.Overhead > oblivious.Overhead)
		verdict := "CONFIRMED"
		if !worse {
			verdict = "UNEXPECTED"
		}
		sup.AddNote("%s: phase-boundary crasher (%d/%d complete, overhead %.2f) vs equal-energy oblivious outages (%d/%d complete, overhead %.2f) — reading the phase structure should hurt more than blind outages",
			verdict, crasher.Completions, crasher.Trials, crasher.Overhead,
			oblivious.Completions, oblivious.Trials, oblivious.Overhead)
	}
	sup.AddNote("paired trial seeds: every adversary faces the baseline's exact draws, so overhead is a paired comparison")
	tables[0].AddNote("overhead below 1 is real, not noise: jamming the busiest channels concentrates devices on fewer channels, which can accelerate the epidemic (the same concentration effect as E22's heavy-occupancy regime)")
	return tables, nil
}

// rng300 offsets E30's seed domain from the shared experiment root.
func rng300(seed int64) int64 { return seed ^ 0x3030 }
