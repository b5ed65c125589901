package exper

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestAdversaryTournamentDeterminism pins E30's acceptance criterion: the
// ranked robustness tables are byte-identical at every -parallel and
// -shards setting (trial seeds derive from the trial index alone; jammed
// and crashed engine scans stay deterministic under sharding).
func TestAdversaryTournamentDeterminism(t *testing.T) {
	e, err := ByID("E30")
	if err != nil {
		t.Fatal(err)
	}
	render := func(workers, shards int) string {
		tables, err := e.Run(Config{Seed: 7, Trials: 3, Quick: true, Parallel: workers, Shards: shards})
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
	ref := render(1, 1)
	for _, v := range []struct{ workers, shards int }{{4, 1}, {8, 1}, {1, 2}, {1, 4}, {8, 4}} {
		if got := render(v.workers, v.shards); got != ref {
			t.Errorf("parallel=%d shards=%d changed E30 tables:\n%s\nvs\n%s", v.workers, v.shards, got, ref)
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
