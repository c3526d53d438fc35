package main

import (
	"math"
	"os"
	"slices"
	"testing"
)

// TestFoldTop folds a committed `go tool pprof -top` listing of an
// azure-steady profile pass.
func TestFoldTop(t *testing.T) {
	raw, err := os.ReadFile("testdata/azure-steady.top.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := foldTop(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for l, v := range got {
		if !slices.Contains(profileLayers, l) {
			t.Errorf("unknown layer %q", l)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum to %v, want 1", sum)
	}
	// Shadow validation dominates this workload's profile.
	for _, l := range profileLayers {
		if got[l] > got["compute"] {
			t.Errorf("layer %s (%.3f) outweighs compute (%.3f)", l, got[l], got["compute"])
		}
	}
	if got["sim"] == 0 || got["runtime"] == 0 || got["other"] == 0 {
		t.Errorf("sim, runtime and other should all hold samples: %v", got)
	}
}

func TestFoldTopRejectsEmpty(t *testing.T) {
	if _, err := foldTop("Showing nodes accounting for 0, 0% of 0 total\n"); err == nil {
		t.Fatal("folded a listing without samples")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"slinfer/internal/compute.(*Validator).validate":   "compute",
		"slinfer/internal/workload/traceio.(*Reader).Next": "workload",
		"slinfer/internal/sim.Time.Sub":                    "sim",
		"slinfer/internal/slo.Objective.Headroom":          "other",
		"slinfer/internal/hwsim.DecodeCoeffs.Time":         "other",
		"runtime.mallocgc":                                 "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":     "runtime",
		"sort.Search":          "other",
		"main.(*harness).pass": "other",
		"slinfer/internal/invariants.(*Suite).onEvent.func": "invariants",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseSeconds(t *testing.T) {
	for s, want := range map[string]float64{
		"0": 0, "10ms": 0.01, "1.50s": 1.5, "250us": 250e-6, "2mins": 120,
	} {
		if got, err := parseSeconds(s); err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseSeconds(%q) = %v, %v, want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"ms", "12", "3furlongs"} {
		if _, err := parseSeconds(s); err == nil {
			t.Errorf("parseSeconds(%q) accepted", s)
		}
	}
}
