// Command slinfer-bench is the repository's benchmark: it replays four
// workloads through the simulator, measures how fast the simulator runs
// them end to end and layer by layer, and checks that every replay of a
// trace produces the same report. See README.md.
//
// Run it from the repository root with bench/run.sh, which builds it:
//
//	bash bench/run.sh -seed 1 -out DIR          all workloads, results.json in DIR
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash bench/run.sh -compare A.json[,A2.json] B.json[,B2.json]
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slinfer-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload in this process (default: every workload, each in its own process)")
	seed := fs.Uint64("seed", 1, "seed the workload traces derive from")
	seconds := fs.Float64("seconds", 20, "length of the measure phase, in seconds")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	full := fs.Bool("full", false, "with -workload: run every phase and report every metric")
	out := fs.String("out", "", "directory for results.json, span JSONL files and CPU profiles")
	cmp := fs.String("compare", "", "compare results files: -compare A.json[,A2.json] B.json[,B2.json]")
	benchPath := fs.String("benchmark", "BENCHMARK.json", "BENCHMARK.json for -compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *cmp != "":
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "usage: -compare A.json[,A2.json] B.json[,B2.json]")
			return 2
		}
		b, err := readBenchmark(*benchPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		worse, err := compare(stdout, b, strings.Split(*cmp, ","), strings.Split(fs.Arg(0), ","))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "unexpected arguments %q\n", fs.Args())
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "-trace must be 0 or 1")
		return 2
	case *seconds <= 0:
		fmt.Fprintln(stderr, "-seconds must be positive")
		return 2
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	hdr := newHeader(*seed, *seconds)
	if *name == "" {
		return runAll(hdr, *out, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q\n", *name)
		return 2
	}
	cfg := runConfig{
		seed: *seed, seconds: *seconds, size: w.full, setups: 5,
		measure: *full || *trace == 0, trace: *full || *trace == 1,
		workers: procs, outDir: *out,
		profDir: filepath.Join(".bench_build", "profiles"), fold: foldProfile,
	}
	fmt.Fprintln(stdout, hdr)
	res := newHarness(w, cfg).run()
	kinds := map[metricKind]bool{endToEnd: cfg.measure, layer: cfg.trace}
	return report(w.name, res, kinds, *full, stdout, stderr)
}

// report prints one line per metric, then the JSON result as the last
// line. The JSON holds the metrics of the selected kinds, or every
// metric when all is set.
func report(name string, res result, kinds map[metricKind]bool, all bool, stdout, stderr io.Writer) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range catalog {
		v, ok := res.Metrics[d.name]
		if !ok || !(kinds[d.kind] || d.kind == diag) {
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Problems = append(res.Problems, fmt.Sprintf("metric %s is %v", d.name, v))
			res.Correct = false
			v = 0
		}
		fmt.Fprintf(stdout, "%s %s %s %s\n", name, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
		if all || kinds[d.kind] {
			metrics[d.name] = value{v, d.unit}
		}
	}
	for _, d := range catalog {
		if kinds[d.kind] {
			if _, ok := metrics[d.name]; !ok {
				res.Problems = append(res.Problems, "metric "+d.name+" was not measured")
				res.Correct = false
			}
		}
	}
	for _, p := range res.Problems {
		fmt.Fprintf(stderr, "%s: %s\n", name, p)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own process, so each one's set-up
// time and peak RSS are its own, and writes results.json to outDir.
func runAll(hdr header, outDir string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, hdr)
	file := resultsFile{Header: hdr, Workloads: map[string]result{}}
	code := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-full",
			"-seed", strconv.FormatUint(hdr.Seed, 10),
			"-seconds", strconv.FormatFloat(hdr.Seconds, 'g', -1, 64)}
		if outDir != "" {
			args = append(args, "-out", outDir)
		}
		var buf bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = &buf, stderr
		runErr := cmd.Run()
		res, err := childResult(buf.Bytes(), stdout)
		if err != nil || runErr != nil || !res.Correct {
			fmt.Fprintf(stderr, "%s: failed (%v, %v)\n", w.name, runErr, err)
			code = 1
		}
		file.Workloads[w.name] = res
	}
	if outDir != "" {
		raw, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(filepath.Join(outDir, "results.json"), append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			code = 1
		}
	}
	return code
}

// childResult forwards a child's metric lines and parses its JSON line.
func childResult(out []byte, stdout io.Writer) (result, error) {
	var res result
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			last = line
			continue
		}
		if !strings.HasPrefix(line, "#") {
			fmt.Fprintln(stdout, line)
		}
	}
	var parsed struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &parsed); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	res = result{Correct: parsed.Correct, Attempted: parsed.Attempted, Failed: parsed.Failed, Metrics: map[string]float64{}}
	for k, v := range parsed.Metrics {
		res.Metrics[k] = v.Value
	}
	return res, nil
}

// header records where and how a run was measured.
type header struct {
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func newHeader(seed uint64, seconds float64) header {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return header{
		Go: runtime.Version(), CPU: cpuModel(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gogc, Seed: seed, Seconds: seconds,
	}
}

func (h header) String() string {
	return fmt.Sprintf("# go=%s cpu=%q num_cpu=%d gomaxprocs=%d gogc=%s seed=%d seconds=%g",
		h.Go, h.CPU, h.NumCPU, h.GOMAXPROCS, h.GOGC, h.Seed, h.Seconds)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
