package games

import (
	"reflect"
	"testing"

	"github.com/cogradio/crn/internal/adversary"
)

func quickTournament() Tournament {
	return Tournament{
		Nodes: 16, Channels: 8, Trials: 3,
		Budget: adversary.Budget{PerSlot: 2, Total: 40},
		Seed:   7,
	}
}

func TestTournamentShape(t *testing.T) {
	res, err := RunTournament(quickTournament())
	if err != nil {
		t.Fatal(err)
	}
	wantRows := map[string]int{
		ArmCogcastJam:     len(Opponents(adversary.CanJam)),
		ArmCogcompBare:    len(Opponents(adversary.CanCrash)),
		ArmCogcompRecover: len(Opponents(adversary.CanCrash)),
	}
	for config, want := range wantRows {
		block := res.ByConfig(config)
		if len(block) != want {
			t.Fatalf("%s: %d rows, want %d", config, len(block), want)
		}
		if block[0].Strategy != "none" {
			t.Errorf("%s: baseline not ranked first: %q", config, block[0].Strategy)
		}
		if block[0].EnergySpent != 0 || block[0].Exhausted != 0 {
			t.Errorf("%s: baseline spent energy: %+v", config, block[0])
		}
		if block[0].MedianSlots > 0 && block[0].Overhead != 1 {
			t.Errorf("%s: baseline overhead = %v, want 1", config, block[0].Overhead)
		}
		for _, d := range block {
			if d.Trials != 3 {
				t.Errorf("%s/%s: trials = %d", config, d.Strategy, d.Trials)
			}
			if got := d.Completions + d.Degraded + d.Stalled; got != d.Trials {
				t.Errorf("%s/%s: outcomes %d do not partition %d trials", config, d.Strategy, got, d.Trials)
			}
			if d.Strategy != "none" && d.EnergySpent > float64(40) {
				t.Errorf("%s/%s: mean energy %v exceeds reserve", config, d.Strategy, d.EnergySpent)
			}
		}
	}
	if len(res.Duels) != wantRows[ArmCogcastJam]+wantRows[ArmCogcompBare]+wantRows[ArmCogcompRecover] {
		t.Errorf("total rows = %d", len(res.Duels))
	}
}

// TestTournamentDeterminism pins the acceptance criterion: the ranked
// tables are identical at any Workers and Shards setting.
func TestTournamentDeterminism(t *testing.T) {
	base := quickTournament()
	ref, err := RunTournament(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []struct {
		workers, shards int
	}{{1, 1}, {4, 1}, {8, 1}, {1, 2}, {1, 4}, {4, 4}} {
		cfg := base
		cfg.Workers = variant.workers
		cfg.Shards = variant.shards
		got, err := RunTournament(cfg)
		if err != nil {
			t.Fatalf("workers=%d shards=%d: %v", variant.workers, variant.shards, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d shards=%d: tables diverge\n got %+v\nwant %+v", variant.workers, variant.shards, got, ref)
		}
	}
}

// TestTournamentZeroEnergy pins the ledger edge case at tournament level:
// with no reserve, every adversary row is identical to its config's
// baseline (the driver is never wired, so the run is the control run).
func TestTournamentZeroEnergy(t *testing.T) {
	cfg := quickTournament()
	cfg.Budget = adversary.Budget{PerSlot: 2, Total: 0}
	res, err := RunTournament(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, config := range []string{ArmCogcastJam, ArmCogcompBare, ArmCogcompRecover} {
		block := res.ByConfig(config)
		base := block[0]
		for _, d := range block[1:] {
			d.Strategy = base.Strategy
			d.Overhead = base.Overhead // both rows are baselines; ranking zeroes only one
			if !reflect.DeepEqual(d, base) {
				t.Errorf("%s: zero-energy row diverges from baseline:\n got %+v\nwant %+v", config, d, base)
			}
		}
	}
}

// TestTournamentCheckKeepsTables pins that Check observes without
// steering: the checked tournament returns the unchecked tables, including
// the classic COGCOMP arm's attacked rows, which stall or degrade by
// design and so run without the oracle.
func TestTournamentCheckKeepsTables(t *testing.T) {
	base := quickTournament()
	base.Nodes, base.Budget = 24, adversary.Budget{PerSlot: 3, Total: 160}
	ref, err := RunTournament(base)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, d := range ref.ByConfig(ArmCogcompBare)[1:] {
		failed += d.Degraded + d.Stalled
	}
	if failed == 0 {
		t.Fatal("no attacked classic COGCOMP trial failed; the config no longer exercises the unchecked path")
	}
	checked := base
	checked.Check = true
	got, err := RunTournament(checked)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("checked tables diverge\n got %+v\nwant %+v", got, ref)
	}
}
