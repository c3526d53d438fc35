package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{0.9, 1.0, 1.1, 1.05, 0.95}, [3]float64{0.925, 1.0, 1.075}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if d := got[i] - c.want[i]; d > 1e-12 || d < -1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	rps := comparedMetric{name: "replay_reqs_per_s", better: "higher", bound: 0.1}
	ms := comparedMetric{name: "replay_ms_p50", better: "lower", bound: 0.1}
	exact := comparedMetric{name: "served_ttft_p50_s", better: "lower", bound: exactBound, exact: true}
	for _, c := range []struct {
		name string
		a, b []float64
		m    comparedMetric
		want string
	}{
		{"within bound", []float64{100, 101, 99}, []float64{97, 98, 96}, rps, "same"},
		{"throughput drop", []float64{100, 101, 99}, []float64{80, 81, 79}, rps, "worse"},
		{"latency drop", []float64{100, 101, 99}, []float64{80, 81, 79}, ms, "better"},
		{"spread wider than bound", []float64{60, 100, 140}, []float64{95, 100, 105}, rps, "unresolved"},
		{"wide but every run better", []float64{60, 70, 80}, []float64{100, 120, 140}, rps, "better"},
		{"one run per side", []float64{100}, []float64{50}, rps, "unresolved"},
		{"missing side", nil, []float64{50, 51}, rps, "unresolved"},
		{"exact metric moved", []float64{0.9}, []float64{0.9000001}, exact, "worse"},
		{"exact metric held", []float64{0.9}, []float64{0.9}, exact, "same"},
		{"zero baseline", []float64{0, 0}, []float64{0, 0}, ms, "same"},
	} {
		if got, _ := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareCommand runs -compare on synthetic results files and checks
// the rows and the exit code.
func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bench := write("BENCHMARK.json", map[string]any{
		"workloads": []map[string]string{{"name": "w1", "why": "x"}},
		"end_to_end": []map[string]any{
			{"name": "replay_reqs_per_s", "unit": "req/s", "better": "higher", "bound": 0.1},
			{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
		},
		"per_layer": []map[string]any{
			{"name": "served_ttft_p50_s", "unit": "s", "better": "lower"},
			{"name": "sim.ns_per_event", "unit": "ns", "better": "lower"},
		},
	})
	results := func(name string, rps, setup, ttft float64) string {
		return write(name, resultsFile{Header: header{Seed: 1}, Workloads: map[string]result{
			"w1": {Correct: true, Metrics: map[string]float64{
				"replay_reqs_per_s": rps, "setup_s": setup, "served_ttft_p50_s": ttft, "sim.ns_per_event": 1,
			}},
		}})
	}
	a := results("a1.json", 1000, 1, 0.5) + "," + results("a2.json", 1010, 1.1, 0.5)
	same := results("b1.json", 990, 1.05, 0.5) + "," + results("b2.json", 1005, 1, 0.5)
	slow := results("c1.json", 700, 1, 0.5) + "," + results("c2.json", 710, 1, 0.5)
	moved := results("d1.json", 1000, 1, 0.6)

	for _, c := range []struct {
		b        string
		code     int
		verdicts []string
	}{
		{same, 0, []string{"same", "same", "same"}},
		{slow, 1, []string{"worse", "same", "same"}},
		{moved, 1, []string{"unresolved", "unresolved", "worse"}},
	} {
		var out, errb bytes.Buffer
		code := realMain([]string{"-benchmark", bench, "-compare", a, c.b}, &out, &errb)
		if code != c.code {
			t.Errorf("compare %s: exit %d, want %d\n%s%s", c.b, code, c.code, out.String(), errb.String())
		}
		var got []string
		for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
			f := strings.Fields(line)
			got = append(got, f[len(f)-1])
		}
		if strings.Join(got, " ") != strings.Join(c.verdicts, " ") {
			t.Errorf("compare %s: verdicts %v, want %v\n%s", c.b, got, c.verdicts, out.String())
		}
	}
}
