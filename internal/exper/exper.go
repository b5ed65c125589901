// Package exper defines the repository's experiment suite: one named,
// runnable experiment per analytical claim in the paper (the paper is a
// theory paper, so its "tables and figures" are theorems and the
// discussion's worked examples; see DESIGN.md for the full index).
// Experiments produce plain-text tables that cmd/cogbench renders and that
// EXPERIMENTS.md records.
package exper

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/cogcomp"
	"github.com/cogradio/crn/internal/parallel"
	recov "github.com/cogradio/crn/internal/recover"
	"github.com/cogradio/crn/internal/rng"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/trace"
)

// Config controls an experiment run.
type Config struct {
	// Seed roots all randomness; identical configs reproduce identical
	// tables.
	Seed int64
	// Trials is the number of independent repetitions per parameter point.
	// Zero means DefaultTrials.
	Trials int
	// Quick shrinks sweeps for use under `go test`/benchmarks; full runs
	// (cmd/cogbench) leave it false.
	Quick bool
	// Parallel bounds the number of worker goroutines running independent
	// trials concurrently. 0 means parallel.DefaultWorkers() (GOMAXPROCS);
	// 1 forces serial execution. Tables are byte-identical for every value:
	// per-trial seeds are derived from the trial index alone, and results
	// are merged in trial order.
	Parallel int
	// Trace, when non-nil, receives structured events from the trial
	// runners wired to it (trial boundaries, slot/protocol events from
	// COGCAST trials, fault transitions in E20). Attaching a sink forces
	// serial trial execution regardless of Parallel so the stream is
	// well-ordered; results are unchanged, only wall-clock grows.
	Trace trace.Sink
	// Check runs every COGCAST/COGCOMP trial under the invariant oracle
	// (package invariant): assignment contract, per-slot collision
	// resolution, distribution tree, census, and aggregate ground truth.
	// Every trial config carries it (see Config.cast). Any violation fails
	// the experiment. Tables are unchanged — the oracle only observes — at
	// the cost of slower trials.
	Check bool
	// Recover routes every COGCOMP trial through the crash-restart
	// recovery supervisor (package recover) instead of the classic
	// runner. Fault-free supervised runs are byte-identical to the
	// classic path, so every table stays unchanged; the flag exists to
	// prove exactly that (E27) and to let fault experiments (E26) measure
	// recovery itself.
	Recover bool
	// Shards splits every trial's per-slot protocol scan across that many
	// goroutines inside the engine (sim.WithShards) — intra-trial
	// parallelism, orthogonal to Parallel's across-trial workers. Tables
	// and traces are byte-identical for every value: shard results merge in
	// node order and the engine's tie-break draws stay serial. 0 or 1 means
	// serial.
	Shards int
	// Sparse runs every trial's engine in event-driven stepping mode
	// (sim.WithSparse): dormant nodes are skipped instead of scanned, which
	// collapses COGCOMP's census window from Θ(n²) node-steps to O(events).
	// Tables and traces are byte-identical either way, Trace and Check
	// included, so the flag only moves wall-clock. The recovery supervisor
	// (Recover) always runs dense: it rewrites node state between slots,
	// which would break a parked node's promise.
	Sparse bool
	// Context, when non-nil, makes the experiment cancellable: the worker
	// pool stops claiming new trials once it is done (surfacing a
	// *parallel.CanceledError with the finished-trial count) and every
	// trial config carries it to the engine, which checks it at slot
	// boundaries (surfacing a *sim.Interrupted mid-trial). An experiment
	// that completes is byte-identical with or without one.
	Context context.Context
}

// DefaultTrials is the per-point repetition count when Config.Trials is 0.
const DefaultTrials = 9

func (c Config) trials() int {
	if c.Trials > 0 {
		return c.Trials
	}
	return DefaultTrials
}

func (c Config) workers() int {
	if c.Trace != nil {
		// Sinks are not concurrency-safe; a well-ordered event stream
		// requires trials to run one at a time.
		return 1
	}
	if c.Parallel > 0 {
		return c.Parallel
	}
	return parallel.DefaultWorkers()
}

// cast, comp and session stamp the suite-wide engine settings onto one
// trial's runner config, the only way Shards, Sparse, Check and Context
// reach a trial. The one deliberate exception is E20's COGCOMP arm, whose
// hand-built config carries only Context: its corrupted aggregates are
// the outcome it measures, so it runs unchecked. comp alone keeps a
// trial's own Sparse, for E29's sparse points; it also stamps the COGCOMP
// config the recovery supervisor embeds, which ignores Sparse.
func (c Config) cast(rc cogcast.RunConfig) cogcast.RunConfig {
	rc.Shards, rc.Sparse, rc.Check, rc.Context = c.Shards, c.Sparse, c.Check, c.Context
	return rc
}

func (c Config) comp(cc cogcomp.Config) cogcomp.Config {
	cc.Shards, cc.Sparse, cc.Check, cc.Context = c.Shards, cc.Sparse || c.Sparse, c.Check, c.Context
	return cc
}

func (c Config) session(sc cogcomp.SessionConfig) cogcomp.SessionConfig {
	sc.Shards, sc.Sparse, sc.Check, sc.Context = c.Shards, c.Sparse, c.Check, c.Context
	return sc
}

// arena is the per-worker scratch handed to every trial closure: an
// assignment builder, the protocol arenas, and input scratch, so repeated
// trials regenerate their setup state in place instead of reallocating it
// from scratch each time. The arena is layout-only reuse — all randomness
// still derives from the trial index — so results never depend on which
// worker's arena ran a trial and tables stay byte-identical at every
// parallelism level.
type arena struct {
	assign assign.Builder
	cast   cogcast.Arena
	comp   cogcomp.Arena
	rec    recov.Arena
	inRand *rand.Rand
	in     []int64
}

// compRun executes one COGCOMP aggregation on this arena: through the
// crash-restart recovery supervisor when cfg.Recover is set, through the
// classic runner otherwise. Fault-free supervised runs are byte-identical
// to the classic path (TestRecoverByteIdentity pins this across the whole
// quick suite), so flipping Recover never changes a fault-free table.
func (a *arena) compRun(cfg Config, asn sim.Assignment, source sim.NodeID, inputs []int64, seed int64, ccfg cogcomp.Config) (*cogcomp.Result, error) {
	ccfg = cfg.comp(ccfg)
	if !cfg.Recover {
		return a.comp.Run(asn, source, inputs, seed, ccfg)
	}
	res, err := a.rec.Run(asn, source, inputs, seed, recov.Config{Config: ccfg})
	if err != nil {
		return nil, err
	}
	if !res.Complete {
		return nil, cogcomp.ErrIncomplete
	}
	return &res.Result, nil
}

// experInputs fills the arena's input scratch with the standard experiment
// input vector (uniform in [-1000, 1000]), drawing exactly as the package
// function of the same name; the slice is valid until the next call on this
// arena. Callers that need several vectors alive at once (session rounds)
// use the allocating package-level experInputs instead.
func (a *arena) experInputs(n int, seed int64) []int64 {
	a.inRand = rng.Reseed(a.inRand, seed, 0x1277)
	if cap(a.in) < n {
		a.in = make([]int64, n)
	}
	a.in = a.in[:n]
	for i := range a.in {
		a.in[i] = a.inRand.Int63n(2001) - 1000
	}
	return a.in
}

// forTrials executes fn for every trial index on the configured worker pool
// and returns the per-trial results in trial order. Each worker owns one
// arena, created inside its goroutine and passed to every fn invocation it
// runs. fn must derive all of its randomness from the trial index (rng.Derive
// of a fixed seed and the index), treat the arena as reusable memory only,
// and share no other mutable state — which is what makes the resulting
// tables independent of Config.Parallel.
func forTrials[T any](cfg Config, trials int, fn func(trial int, a *arena) (T, error)) ([]T, error) {
	return parallel.MapArena(cfg.Context, trials, cfg.workers(), func() *arena { return new(arena) }, fn)
}

// Table is a rendered experiment result.
type Table struct {
	// Title names the table, e.g. "E1: COGCAST scaling in n (c <= n)".
	Title string
	// Claim restates the paper's prediction the table checks.
	Claim string
	// Columns are the header cells.
	Columns []string
	// Rows are the data cells, already formatted.
	Rows [][]string
	// Notes carries fit results and verdict lines.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, wd := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", wd))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// Markdown writes the table as a GitHub-flavored Markdown table.
func (t *Table) Markdown(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "*Claim:* %s\n\n", t.Claim)
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Columns, " | "))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the table as RFC-4180 CSV (title and notes as comment rows are
// omitted; only header and data rows are emitted, which is what plotting
// scripts want).
func (t *Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Experiment is one named reproduction.
type Experiment struct {
	// ID is the experiment identifier, e.g. "E1".
	ID string
	// Title is a one-line description.
	Title string
	// Claim restates what the paper predicts.
	Claim string
	// Run executes the experiment and returns its tables.
	Run func(cfg Config) ([]*Table, error)
}

// registry holds all experiments, populated by init functions in the
// per-area files of this package (a fixed, package-internal registration —
// not mutable global state in the style-guide sense, since nothing outside
// the package can modify it).
var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("exper: duplicate experiment id " + e.ID) // programmer error at package init
	}
	registry[e.ID] = e
}

// All returns every experiment ordered by numeric ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		return idNum(out[i].ID) < idNum(out[j].ID)
	})
	return out
}

func idNum(id string) int {
	n := 0
	for _, r := range id {
		if r >= '0' && r <= '9' {
			n = n*10 + int(r-'0')
		}
	}
	return n
}

// ByID looks an experiment up by its identifier (case-insensitive).
func ByID(id string) (Experiment, error) {
	e, ok := registry[strings.ToUpper(id)]
	if !ok {
		return Experiment{}, fmt.Errorf("exper: unknown experiment %q", id)
	}
	return e, nil
}

// ftoa formats a float compactly for table cells.
func ftoa(v float64) string {
	return fmt.Sprintf("%.2f", v)
}

// itoa formats an int for table cells.
func itoa(v int) string { return fmt.Sprintf("%d", v) }
