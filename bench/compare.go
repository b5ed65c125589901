package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"github.com/cogradio/crn/internal/stats"
)

// benchmarkSpec is the part of BENCHMARK.json that compare reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// resultSet maps workload → metric → the values of every run in a set.
type resultSet map[string]map[string][]float64

// loadSet reads a result directory: one subdirectory per workload, each
// holding one file per run whose last line is the run's result line.
func loadSet(dir string) (resultSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no results (want <workload>/<run>.json)", dir)
	}
	set := resultSet{}
	for _, f := range files {
		line, err := lastLine(f)
		if err != nil {
			return nil, err
		}
		var r resultLine
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !r.Correct || r.Failed != 0 {
			return nil, fmt.Errorf("%s: run was not correct (%d of %d trials failed)", f, r.Failed, r.Attempted)
		}
		w := filepath.Base(filepath.Dir(f))
		if set[w] == nil {
			set[w] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			set[w][name] = append(set[w][name], m.Value)
		}
	}
	return set, nil
}

func lastLine(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if l := bytes.TrimSpace(sc.Bytes()); len(l) > 0 {
			last = slices.Clone(l)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if last == nil {
		return nil, fmt.Errorf("%s: empty", path)
	}
	return last, nil
}

// summary is a set's median and quartiles for one metric.
type summary struct{ q1, med, q3 float64 }

func summarize(vs []float64) summary {
	s := slices.Clone(vs)
	slices.Sort(s)
	return summary{stats.Quantile(s, 0.25), stats.Quantile(s, 0.5), stats.Quantile(s, 0.75)}
}

func (s summary) spread() float64 { return (s.q3 - s.q1) / s.med }

// verdict judges set b against set a for one metric. It is "worse" when
// b's median is worse than a's by more than the bound, "unresolved" when
// either set's spread is wider than the bound (unless every run of b reads
// better than every run of a), and "within bound" otherwise.
func verdict(a, b []float64, lowerBetter bool, bound float64) string {
	sa, sb := summarize(a), summarize(b)
	change := (sb.med - sa.med) / sa.med
	if !lowerBetter {
		change = -change
	}
	if max(sa.spread(), sb.spread()) > bound {
		worstB, bestA := slices.Max(b), slices.Min(a)
		if !lowerBetter {
			worstB, bestA = slices.Min(b), slices.Max(a)
		}
		if (lowerBetter && worstB < bestA) || (!lowerBetter && worstB > bestA) {
			return "within bound"
		}
		return "unresolved"
	}
	if change > bound {
		return "worse"
	}
	return "within bound"
}

// compareSets prints, for every workload and end-to-end metric, both sets'
// medians and quartiles and the verdict. It exits 1 when any is worse.
func compareSets(specPath, dirA, dirB string, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", specPath, err)
		return 2
	}
	a, err := loadSet(dirA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := loadSet(dirB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	var names []string
	for w := range a {
		if b[w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(stderr, "bench: the two sets share no workload")
		return 2
	}
	code := 0
	fmt.Fprintf(stdout, "%-16s %-18s %5s %34s %34s  %s\n", "workload", "metric", "bound",
		"A median [q1, q3] (runs)", "B median [q1, q3] (runs)", "verdict")
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			va, vb := a[w][m.Name], b[w][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stdout, "%-16s %-18s missing from a set\n", w, m.Name)
				code = 1
				continue
			}
			v := verdict(va, vb, m.Better == "lower", m.Bound)
			if v == "worse" {
				code = 1
			}
			sa, sb := summarize(va), summarize(vb)
			fmt.Fprintf(stdout, "%-16s %-18s %5.2f %34s %34s  %s\n", w, m.Name, m.Bound,
				fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", sa.med, sa.q1, sa.q3, len(va)),
				fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", sb.med, sb.q1, sb.q3, len(vb)), v)
		}
	}
	return code
}
