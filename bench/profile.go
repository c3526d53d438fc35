package main

import (
	"errors"
	"fmt"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// foldProfile folds a CPU profile's flat time into per-layer fractions,
// reading it through `go tool pprof -top`. Samples under
// Report.Canonical are the harness checking replays, not the replays, and
// are left out.
func foldProfile(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodefraction=0", "-nodecount=100000",
		`-ignore=metrics\.Report\.Canonical`, path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTop(string(out))
}

// foldTop sums the flat column of `pprof -top` text by layer and divides
// by the total, so the fractions sum to 1.
func foldTop(text string) (map[string]float64, error) {
	flat := map[string]float64{}
	var total float64
	table := false
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if !table {
			table = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		v, err := parseSeconds(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", line, err)
		}
		flat[layerOf(f[5])] += v
		total += v
	}
	if total == 0 {
		return nil, errors.New("pprof output holds no samples")
	}
	for l := range flat {
		flat[l] /= total
	}
	return flat, nil
}

// layerOf maps a profiled function to its layer: the internal/ package it
// belongs to (subpackages fold into their parent), the Go runtime, or
// other.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "slinfer/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		if slices.Contains(profileLayers, pkg) {
			return pkg
		}
		return "other"
	}
	for _, p := range []string{"runtime.", "internal/runtime/", "runtime/internal/"} {
		if strings.HasPrefix(fn, p) {
			return "runtime"
		}
	}
	return "other"
}

var pprofUnits = map[string]float64{
	"ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1, "mins": 60, "hrs": 3600,
}

// parseSeconds parses a pprof time value such as "1.20s" or "30ms".
func parseSeconds(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	i := strings.IndexFunc(s, func(r rune) bool { return (r < '0' || r > '9') && r != '.' })
	if i <= 0 {
		return 0, fmt.Errorf("time value %q has no unit", s)
	}
	scale, ok := pprofUnits[s[i:]]
	if !ok {
		return 0, fmt.Errorf("time value %q has unknown unit", s)
	}
	v, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, err
	}
	return v * scale, nil
}
