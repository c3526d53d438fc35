package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(path string) (benchmarkFile, error) {
	var b benchmarkFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// resultsFile is results.json: one full run of every workload.
type resultsFile struct {
	Header    header            `json:"header"`
	Workloads map[string]result `json:"workloads"`
}

func readResults(path string) (resultsFile, error) {
	var r resultsFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// exactBound is the bound of the deterministic served_* metrics: any
// change is a change in simulation semantics.
const exactBound = 1e-9

// comparedMetric is one row key of a comparison.
type comparedMetric struct {
	name, unit, better string
	bound              float64
	exact              bool // deterministic for a seed: compared exactly
}

// comparedMetrics returns the end-to-end metrics with their bounds, then
// every other served_* metric, compared exactly.
func comparedMetrics(b benchmarkFile) []comparedMetric {
	var out []comparedMetric
	for _, m := range b.EndToEnd {
		if strings.HasPrefix(m.Name, "served_") {
			out = append(out, comparedMetric{m.Name, m.Unit, m.Better, exactBound, true})
		} else {
			out = append(out, comparedMetric{m.Name, m.Unit, m.Better, m.Bound, false})
		}
	}
	for _, m := range b.PerLayer {
		if strings.HasPrefix(m.Name, "served_") {
			out = append(out, comparedMetric{m.Name, m.Unit, m.Better, exactBound, true})
		}
	}
	return out
}

// compare prints one row per (workload, metric) for two sets of results
// files and reports whether any row reads worse.
func compare(w io.Writer, b benchmarkFile, aPaths, bPaths []string) (worse bool, err error) {
	load := func(paths []string) ([]resultsFile, error) {
		var out []resultsFile
		for _, p := range paths {
			r, err := readResults(p)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}
	as, err := load(aPaths)
	if err != nil {
		return false, err
	}
	bs, err := load(bPaths)
	if err != nil {
		return false, err
	}
	seeds := map[uint64]bool{}
	for _, r := range append(append([]resultsFile(nil), as...), bs...) {
		seeds[r.Header.Seed] = true
	}
	if len(seeds) > 1 {
		fmt.Fprintln(w, "# note: the files mix seeds, so served_* metrics differ by input")
	}
	fmt.Fprintf(w, "%-21s %-20s %-6s %-32s %-32s %9s %7s  %s\n",
		"workload", "metric", "unit", "A median [q1 q3]", "B median [q1 q3]", "change", "bound", "verdict")
	for _, wl := range b.Workloads {
		for _, m := range comparedMetrics(b) {
			av, bv := values(as, wl.Name, m.name), values(bs, wl.Name, m.name)
			v, change := verdict(av, bv, m)
			if v == "worse" {
				worse = true
			}
			fmt.Fprintf(w, "%-21s %-20s %-6s %-32s %-32s %+8.2f%% %6.2g%%  %s\n",
				wl.Name, m.name, m.unit, summary(av), summary(bv), 100*change, 100*m.bound, v)
		}
	}
	return worse, nil
}

func values(rs []resultsFile, wl, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Workloads[wl].Metrics[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

func summary(xs []float64) string {
	if len(xs) == 0 {
		return "missing"
	}
	q := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g %.6g]", q[1], q[0], q[2])
}

// verdict compares B against A. change is the relative change of the
// median. A side whose quartile spread exceeds the bound cannot resolve a
// change of that size, unless every B run beats every A run; a single
// run has no spread to judge by, so only exact metrics compare on one.
func verdict(a, b []float64, m comparedMetric) (string, float64) {
	if len(a) == 0 || len(b) == 0 {
		return "unresolved", math.NaN()
	}
	qa, qb := quartiles(a), quartiles(b)
	change := relChange(qa[1], qb[1])
	worse := change
	if m.better == "higher" {
		worse = -change
	}
	spread := math.Max(relSpread(qa), relSpread(qb))
	switch {
	case !m.exact && (len(a) < 2 || len(b) < 2):
		return "unresolved", change
	case spread > m.bound:
		if allBetter(a, b, m.better) {
			return "better", change
		}
		return "unresolved", change
	case worse > m.bound:
		return "worse", change
	case worse < -m.bound:
		return "better", change
	}
	return "same", change
}

func relChange(from, to float64) float64 {
	switch {
	case from == to:
		return 0
	case from == 0:
		return math.Copysign(math.Inf(1), to)
	}
	return (to - from) / math.Abs(from)
}

func relSpread(q [3]float64) float64 {
	if q[2] == q[0] {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

func allBetter(a, b []float64, better string) bool {
	for _, x := range a {
		for _, y := range b {
			if (better == "higher" && y <= x) || (better != "higher" && y >= x) {
				return false
			}
		}
	}
	return true
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method); one sample is its own quartiles.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
