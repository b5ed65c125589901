package exper

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/cogradio/crn/internal/adversary"
)

// TestAdversaryTournamentDeterminism pins E30's acceptance criterion: the
// ranked robustness tables are byte-identical at every -parallel, -shards
// and -sparse setting (trial seeds derive from the trial index alone;
// jammed and crashed engine scans stay deterministic under sharding, and
// sparse stepping only skips dormant nodes).
func TestAdversaryTournamentDeterminism(t *testing.T) {
	e, err := ByID("E30")
	if err != nil {
		t.Fatal(err)
	}
	render := func(workers, shards int, sparse bool) string {
		tables, err := e.Run(Config{Seed: 7, Trials: 3, Quick: true, Parallel: workers, Shards: shards, Sparse: sparse})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, tb := range tables {
			if err := tb.Render(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.String()
	}
	ref := render(1, 1, false)
	for _, v := range []struct {
		workers, shards int
		sparse          bool
	}{{4, 1, false}, {8, 1, false}, {1, 2, false}, {1, 4, false}, {4, 4, false}, {8, 4, false}, {1, 1, true}, {8, 1, true}} {
		if got := render(v.workers, v.shards, v.sparse); got != ref {
			t.Errorf("parallel=%d shards=%d sparse=%v changed E30 tables:\n%s\nvs\n%s", v.workers, v.shards, v.sparse, got, ref)
		}
	}
	if !strings.Contains(ref, "CONFIRMED") {
		t.Errorf("E30 quick run did not confirm the crasher-vs-oblivious comparison:\n%s", ref)
	}
}

// TestAdversaryTournamentHonoursContext pins that E30 hands the suite's
// context to its tournament: an already-expired deadline must stop the
// run with an error instead of producing tables.
func TestAdversaryTournamentHonoursContext(t *testing.T) {
	e, err := ByID("E30")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	tables, err := e.Run(Config{Seed: 7, Trials: 3, Quick: true, Context: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("E30 under an expired context: %d tables, error %v; want context.DeadlineExceeded", len(tables), err)
	}
}

func quickTournament() tournament {
	return tournament{n: 16, c: 8, trials: 3, budget: adversary.Budget{PerSlot: 2, Total: 40}, seed: 7}
}

func TestTournamentShape(t *testing.T) {
	blocks, err := quickTournament().run(Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		arm  string
		rows int
	}{
		{"COGCAST/jam", len(opponents(adversary.CanJam))},
		{"COGCOMP/classic", len(opponents(adversary.CanCrash))},
		{"COGCOMP/recover", len(opponents(adversary.CanCrash))},
	}
	if len(blocks) != len(want) || len(tourArms) != len(want) {
		t.Fatalf("%d blocks for %d arms, want %d of each", len(blocks), len(tourArms), len(want))
	}
	for i, w := range want {
		config, block := tourArms[i].name, blocks[i]
		if config != w.arm {
			t.Errorf("arm %d is %q, want %q", i, config, w.arm)
		}
		if len(block) != w.rows {
			t.Fatalf("%s: %d rows, want %d", config, len(block), w.rows)
		}
		if block[0].strategy != "none" {
			t.Errorf("%s: baseline not ranked first: %q", config, block[0].strategy)
		}
		if block[0].energySpent != 0 || block[0].exhausted != 0 {
			t.Errorf("%s: baseline spent energy: %+v", config, block[0])
		}
		if block[0].medianSlots > 0 && block[0].overhead != 1 {
			t.Errorf("%s: baseline overhead = %v, want 1", config, block[0].overhead)
		}
		for _, d := range block {
			if d.trials != 3 {
				t.Errorf("%s/%s: trials = %d", config, d.strategy, d.trials)
			}
			if got := d.completions + d.degraded + d.stalled; got != d.trials {
				t.Errorf("%s/%s: outcomes %d do not partition %d trials", config, d.strategy, got, d.trials)
			}
			if d.strategy != "none" && d.energySpent > float64(40) {
				t.Errorf("%s/%s: mean energy %v exceeds reserve", config, d.strategy, d.energySpent)
			}
		}
	}
}

// TestTournamentDeterminism pins that the duel blocks themselves, not only
// their rendering, are identical at every worker and shard count.
func TestTournamentDeterminism(t *testing.T) {
	tour := quickTournament()
	ref, err := tour.run(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []struct {
		workers, shards int
	}{{1, 1}, {4, 1}, {8, 1}, {1, 2}, {1, 4}, {4, 4}} {
		got, err := tour.run(Config{Parallel: variant.workers, Shards: variant.shards})
		if err != nil {
			t.Fatalf("workers=%d shards=%d: %v", variant.workers, variant.shards, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d shards=%d: tables diverge\n got %+v\nwant %+v", variant.workers, variant.shards, got, ref)
		}
	}
}

// TestTournamentZeroEnergy pins the ledger edge case at tournament level:
// with no reserve, every adversary row is identical to its arm's baseline
// (the driver is never wired, so the run is the control run).
func TestTournamentZeroEnergy(t *testing.T) {
	tour := quickTournament()
	tour.budget = adversary.Budget{PerSlot: 2, Total: 0}
	blocks, err := tour.run(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, block := range blocks {
		base := block[0]
		for _, d := range block[1:] {
			d.strategy = base.strategy
			d.overhead = base.overhead // both rows are baselines; ranking zeroes only one
			if d != base {
				t.Errorf("%s: zero-energy row diverges from baseline:\n got %+v\nwant %+v", tourArms[i].name, d, base)
			}
		}
	}
}

// TestTournamentCheckKeepsTables pins that Check observes without
// steering: the checked tournament returns the unchecked tables, including
// the classic COGCOMP arm's attacked rows, which stall or degrade by
// design and so run without the oracle.
func TestTournamentCheckKeepsTables(t *testing.T) {
	tour := quickTournament()
	tour.n, tour.budget = 24, adversary.Budget{PerSlot: 3, Total: 160}
	ref, err := tour.run(Config{})
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, d := range ref[1][1:] { // COGCOMP/classic's attacked rows
		failed += d.degraded + d.stalled
	}
	if failed == 0 {
		t.Fatal("no attacked classic COGCOMP trial failed; the config no longer exercises the unchecked path")
	}
	got, err := tour.run(Config{Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("checked tables diverge\n got %+v\nwant %+v", got, ref)
	}
}
