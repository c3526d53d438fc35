// Command benchfmt converts `go test -bench` output on stdin into a JSON
// benchmark matrix on stdout, so CI can record the performance trajectory
// as a machine-readable artifact (BENCH_matrix.json) instead of a log to
// eyeball.
//
//	go test -run '^$' -bench 'BenchmarkSub_' -benchtime 1x . | benchfmt > BENCH_matrix.json
//
// Each benchmark line
//
//	BenchmarkSub_SimEventLoop-8   120   9876543 ns/op   1234 B/op   5 allocs/op   650000 events/s
//
// becomes an entry {"name": "Sub_SimEventLoop", "procs": 8, "iterations":
// 120, "metrics": {"ns/op": 9876543, ...}}; the surrounding goos/goarch/pkg
// header lines populate the envelope.
//
// Compare mode diffs two matrices and flags regressions:
//
//	benchfmt -compare -threshold 0.25 BENCH_baseline.json BENCH_matrix.json
//
// It prints a per-benchmark delta table (positive deltas are improvements;
// "/s" metrics improve upward, ns/op, B/op and allocs/op improve downward)
// and exits nonzero when any metric worsened past the threshold. -match
// restricts the comparison to benchmarks whose name matches a regexp; CI
// gates hard on the subsystem suite this way:
//
//	benchfmt -compare -match '^Sub_' -threshold 4 BENCH_baseline.json BENCH_matrix.json
//
// Cross-machine absolute numbers are not comparable, so the gating threshold
// is generous — it exists to catch order-of-magnitude regressions, not
// single-digit noise. See DESIGN.md "Benchmark gating" for the
// baseline-refresh procedure.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Entry is one parsed benchmark result.
type Entry struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Matrix is the emitted document.
type Matrix struct {
	Goos    string  `json:"goos,omitempty"`
	Goarch  string  `json:"goarch,omitempty"`
	Pkg     string  `json:"pkg,omitempty"`
	CPU     string  `json:"cpu,omitempty"`
	Results []Entry `json:"results"`
}

func main() {
	compare := flag.Bool("compare", false, "compare two benchmark matrices: benchfmt -compare old.json new.json")
	threshold := flag.Float64("threshold", 0.25, "relative worsening past which a metric is a regression (compare mode)")
	match := flag.String("match", "", "regexp restricting compare mode to matching benchmark names")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchfmt -compare [-threshold 0.25] [-match '^Sub_'] old.json new.json")
			os.Exit(2)
		}
		regressions, err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold, *match)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchfmt: %v\n", err)
			os.Exit(2)
		}
		if regressions > 0 {
			os.Exit(1)
		}
		return
	}

	var m Matrix
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			m.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			m.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			m.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			m.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if e, ok := parseLine(line); ok {
				m.Results = append(m.Results, e)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchfmt: %v\n", err)
		os.Exit(1)
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchfmt: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// parseLine decodes one benchmark result line: name, iteration count, then
// (value, unit) pairs.
func parseLine(line string) (Entry, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Entry{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	e := Entry{Name: name, Metrics: map[string]float64{}}
	if i := strings.LastIndex(name, "-"); i > 0 {
		if procs, err := strconv.Atoi(name[i+1:]); err == nil {
			e.Name = name[:i]
			e.Procs = procs
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Entry{}, false
	}
	e.Iterations = iters
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		e.Metrics[fields[i+1]] = v
	}
	return e, true
}
