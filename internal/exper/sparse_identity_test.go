package exper

import (
	"bytes"
	"testing"

	"github.com/cogradio/crn/internal/trace"
)

// TestSparseTrialByteIdentity is the experiment-level half of the
// Config.Sparse contract: event-driven stepping must not change a rendered
// cell anywhere in the matrix of shard counts and trial-worker counts. The
// set mirrors shardIdentityFixed — E1 exercises COGCAST (which cannot hint
// and gains only done-retirement), E4 the COGCOMP phases where dormancy
// actually bites, E25 multi-round sessions with round-boundary wakes, E26
// the crash-restart supervisor whose fault wrappers void dormancy promises
// (Recover always steps densely, so Sparse must be a no-op there too).
// Under `go test -race` the sparse trials run concurrently across workers,
// pinning the engine's per-trial wake state against shared mutation.
func TestSparseTrialByteIdentity(t *testing.T) {
	for _, id := range []string{"E1", "E4", "E25", "E26"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			render := func(sparse bool, shards, workers int) string {
				tables, err := e.Run(Config{Seed: 7, Trials: 2, Quick: true,
					Sparse: sparse, Shards: shards, Parallel: workers})
				if err != nil {
					t.Fatalf("%s sparse=%v shards=%d parallel=%d: %v", id, sparse, shards, workers, err)
				}
				return renderAll(t, tables)
			}
			want := render(false, 1, 1)
			for _, shards := range []int{1, 4, 8} {
				for _, workers := range []int{1, 4} {
					if got := render(true, shards, workers); got != want {
						t.Errorf("%s: sparse tables at shards=%d parallel=%d differ from dense serial:\n--- sparse ---\n%s\n--- dense ---\n%s",
							id, shards, workers, got, want)
					}
				}
			}
		})
	}
}

// TestSparseTraceByteIdentity extends the contract to the event stream: a
// traced run with Config.Sparse set steps sparsely under the trace
// recorder, and its JSONL stream must be byte-for-byte the dense run's. E1
// covers COGCAST trace events, E26 the recovery supervisor's fault events
// (the supervisor always steps densely, so there the flag is a no-op).
func TestSparseTraceByteIdentity(t *testing.T) {
	for _, id := range []string{"E1", "E26"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			record := func(sparse bool) string {
				var buf bytes.Buffer
				sink := trace.NewJSONL(&buf)
				if _, err := e.Run(Config{Seed: 7, Trials: 2, Quick: true, Sparse: sparse, Trace: sink}); err != nil {
					t.Fatalf("%s sparse=%v: %v", id, sparse, err)
				}
				if err := sink.Err(); err != nil {
					t.Fatal(err)
				}
				return buf.String()
			}
			dense := record(false)
			if dense == "" {
				t.Fatalf("%s emitted no trace events", id)
			}
			if got := record(true); got != dense {
				t.Errorf("%s: JSONL trace with Config.Sparse differs from dense run", id)
			}
		})
	}
}
