// Command bench is the simulator's benchmark driver. It runs one workload
// for a fixed time, checks every trial's output, and prints the workload's
// end-to-end metrics (or, with --trace 1, its per-layer breakdown) as the
// last line of standard output, in the shape BENCHMARK.json describes.
//
// Run it from the repository root through the build wrapper:
//
//	bash bench/run.sh --workload trials-small --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --seed 1 --seconds 20
//	bash bench/run.sh -compare bench/results/set-a bench/results/set-b
//
// See bench/README.md for the workloads, metrics and method.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// digestsJSON holds the expected round-0 digest of every workload for
// seeds 1 and 2: {"workload": {"seed": "hex"}}. Seed 2 is held back for
// checking claims on a seed not used while a change was written.
//
//go:embed digests.json
var digestsJSON []byte

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ws := workloads(false)
	var names []string
	for _, w := range ws {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run, or all: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "workload seed; every trial seed derives from it")
	seconds := fs.Int("seconds", 20, "keep starting rounds for this many seconds")
	traceLevel := fs.Int("trace", 0, "1 reports the traced per-layer breakdown instead of the end-to-end metrics")
	compare := fs.Bool("compare", false, "compare the result sets in the two directories given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result directories")
			return 2
		}
		return compareSets("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 || (*traceLevel != 0 && *traceLevel != 1) {
		fmt.Fprintln(stderr, "bench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(names, args, stdout, stderr)
	}
	w, err := workloadByName(ws, *name)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v (have %s)\n", err, strings.Join(names, ", "))
		return 2
	}
	tracing := *traceLevel == 1
	res, err := measure(w, *seed, time.Duration(*seconds)*time.Second, tracing)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if tracing {
		path := fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", w.name, *seed)
		if err := writeSpans(path, res.spans); err != nil {
			fmt.Fprintf(stderr, "bench: writing spans: %v\n", err)
		} else {
			fmt.Fprintf(stderr, "bench: spans written to %s\n", path)
		}
	}
	return report(w, *seed, tracing, res, stdout, stderr)
}

// runAll runs every workload in its own process, so each one's peak memory
// is its own, and passes their output through.
func runAll(names, args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, name := range names {
		cmd := exec.Command(self, append(slices.Clone(args), "--workload", name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// result is what one run measured.
type result struct {
	attempted int
	failed    int
	firstErr  error
	mismatch  []string // passes whose digest differs from the untraced one
	digest    uint64   // round 0, untraced
	metrics   map[string]float64
	spans     []spanBuf
	walls     []float64 // each untraced round's wall time, s
	scale     float64   // hostScale of the untraced rounds
}

func (r *result) add(o *roundOut) {
	r.attempted += len(o.trials)
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// measure runs rounds of w for d: it starts another round only when one as
// long as the last still ends within d, so a run takes at most d unless its
// first round alone is longer. Untraced, a round is one plain pass; traced,
// it adds tracedPasses.
func measure(w *workload, seed int64, d time.Duration, tracing bool) (*result, error) {
	var timerNs float64
	if tracing {
		timerNs = calibrateTimer()
	}
	res := &result{}
	var plains []*roundOut
	var trs []tracedRound
	start := time.Now()
	for round := 0; ; round++ {
		roundStart := time.Now()
		p, err := w.runRound(seed, round, plain)
		if err != nil {
			return nil, err
		}
		res.add(p)
		res.walls = append(res.walls, float64(p.wall)/1e9)
		if round == 0 {
			res.digest = p.digest
		}
		plains = append(plains, p)
		if tracing {
			tr, err := w.tracedPasses(seed, round, p, res)
			if err != nil {
				return nil, err
			}
			trs = append(trs, tr)
		}
		if time.Since(start)+time.Since(roundStart) > d {
			break
		}
	}
	res.scale = hostScale(plains)
	if tracing {
		res.metrics = layerMetrics(trs, timerNs)
		for _, tr := range trs {
			res.spans = append(res.spans, tr.traced.spans...)
		}
	} else {
		res.metrics = endToEndMetrics(plains)
	}
	return res, nil
}

// tracedPasses reruns round's trials traced and, for a workload with
// observers, without them in dense and sparse stepping. Each pass must
// reproduce the plain pass's digest.
func (w *workload) tracedPasses(seed int64, round int, p *roundOut, res *result) (tracedRound, error) {
	tr := tracedRound{plain: p}
	again := func(kind pass, name string, out **roundOut) error {
		o, err := w.runRound(seed, round, kind)
		if err != nil {
			return err
		}
		res.add(o)
		if o.digest != p.digest {
			res.mismatch = append(res.mismatch, fmt.Sprintf("round %d %s pass", round, name))
		}
		*out = o
		return nil
	}
	if err := again(traced, "traced", &tr.traced); err != nil {
		return tr, err
	}
	if w.comp != nil && w.comp.checked {
		if err := again(dense, "dense", &tr.dense); err != nil {
			return tr, err
		}
		if err := again(sparse, "sparse", &tr.sparse); err != nil {
			return tr, err
		}
	}
	return tr, nil
}

// goldenDigest returns the committed digest for w and seed, if any.
func goldenDigest(w *workload, seed int64) (uint64, bool, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return 0, false, fmt.Errorf("digests.json: %w", err)
	}
	hex, ok := all[w.name][strconv.FormatInt(seed, 10)]
	if !ok {
		return 0, false, nil
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false, fmt.Errorf("digests.json: %s seed %d: %w", w.name, seed, err)
	}
	return v, true, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints a readable summary, then the result line, and returns the
// exit code: 0 only when every trial and digest checked out.
func report(w *workload, seed int64, tracing bool, res *result, stdout, stderr io.Writer) int {
	defs := endToEnd
	if tracing {
		defs = perLayer
	}
	correct := res.failed == 0 && len(res.mismatch) == 0
	fmt.Fprintf(stdout, "workload %s seed %d traced %v: %d rounds, %d trials, %d failed, GOMAXPROCS %d\n",
		w.name, seed, tracing, len(res.walls), res.attempted, res.failed, runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "round wall_s (unscaled):")
	for _, v := range res.walls {
		fmt.Fprintf(stdout, " %.4f", v)
	}
	fmt.Fprintf(stdout, "\nhost: reference kernel %.2f ms against %.2f ms nominal; end-to-end times scaled by %.4f\n",
		1e3*refNominal/res.scale, 1e3*refNominal, res.scale)
	if res.firstErr != nil {
		fmt.Fprintf(stderr, "bench: %s: first failure: %v\n", w.name, res.firstErr)
	}
	for _, m := range res.mismatch {
		fmt.Fprintf(stderr, "bench: %s: %s does not reproduce the untraced digest\n", w.name, m)
	}
	want, ok, err := goldenDigest(w, seed)
	switch {
	case err != nil:
		fmt.Fprintf(stderr, "bench: %v\n", err)
		correct = false
	case !ok:
		fmt.Fprintf(stdout, "digest %016x (no committed digest for seed %d)\n", res.digest, seed)
	case want == res.digest:
		fmt.Fprintf(stdout, "digest %016x (matches the committed digest)\n", res.digest)
	default:
		fmt.Fprintf(stdout, "digest %016x (committed digest is %016x)\n", res.digest, want)
		correct = false
	}
	line := resultLine{Correct: correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "bench: %s: metric %s has no value (%v)\n", w.name, d.name, v)
			return 1
		}
		fmt.Fprintf(stdout, "  %-30s %14.6g %s\n", d.name, v, d.unit)
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !correct {
		return 1
	}
	return 0
}
