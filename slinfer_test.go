package slinfer

import (
	"path/filepath"
	"strings"
	"testing"

	"slinfer/internal/faults"
	"slinfer/internal/hwsim"
	"slinfer/internal/perfmodel"
	"slinfer/internal/slo"
)

func TestFacadeEndToEnd(t *testing.T) {
	cluster := Testbed(1, 1)
	models := Replicas(Llama2_7B, 4)
	trace := AzureTrace(models, 3, 1)
	if len(trace.Requests) == 0 {
		t.Fatal("empty trace")
	}
	rep := Run(SLINFER(), cluster, models, trace)
	if rep.Total != int64(len(trace.Requests)) {
		t.Fatalf("report total %d != trace %d", rep.Total, len(trace.Requests))
	}
	if rep.SLORate <= 0 {
		t.Fatal("nothing served")
	}
}

func TestFacadeDeterminism(t *testing.T) {
	models := Replicas(Llama32_3B, 6)
	trace := AzureTrace(models, 3, 7)
	a := Run(SLINFER(), Testbed(1, 1), models, trace)
	b := Run(SLINFER(), Testbed(1, 1), models, trace)
	if a.Met != b.Met || a.Dropped != b.Dropped || a.AvgBatch != b.AvgBatch {
		t.Fatalf("nondeterministic: %+v vs %+v", a.Met, b.Met)
	}
}

// TestFacadeFleet is the acceptance golden: slinfer.RunFleet with 4 shards
// is byte-identical (canonical merged and per-shard reports) across
// repeated runs and across Workers settings, conserves every request, and
// its shard slices partition the trace.
func TestFacadeFleet(t *testing.T) {
	models := Replicas(Llama2_7B, 8)
	trace := AzureTrace(models, 3, 5)
	cfg := FleetConfig{
		System:           SLINFER(),
		Shards:           UniformFleet(4, 1, 1),
		Models:           models,
		Routing:          LeastOutstandingRouting(),
		Seed:             5,
		AttachInvariants: true,
	}
	render := func(res FleetResult) string {
		out := res.Report.Canonical()
		for _, r := range res.Shards {
			out += r.Canonical()
		}
		return out
	}
	cfg.Workers = 1
	serial := RunFleet(cfg, trace)
	if !serial.Ok() {
		t.Fatalf("violations: %v %v", serial.Violations, serial.ShardViolations)
	}
	cfg.Workers = 8
	parallel := RunFleet(cfg, trace)
	if render(serial) != render(parallel) {
		t.Fatal("fleet run diverged between -parallel 1 and -parallel 8")
	}
	again := RunFleet(cfg, trace)
	if render(parallel) != render(again) {
		t.Fatal("fleet run diverged across repeated runs at fixed seed")
	}
	if serial.Accepted != int64(len(trace.Requests)) || len(serial.Rejections) != 0 {
		t.Fatalf("accept-all fleet shed requests: accepted=%d rejected=%d",
			serial.Accepted, len(serial.Rejections))
	}
	if got := MergeTraces(serial.ShardTraces...); len(got.Requests) != len(trace.Requests) {
		t.Fatalf("shard slices merge to %d requests, trace has %d",
			len(got.Requests), len(trace.Requests))
	}
	parts := PartitionTrace(trace, 2, func(r Request) int { return int(r.ID) % 2 })
	if len(parts[0].Requests)+len(parts[1].Requests) != len(trace.Requests) {
		t.Fatal("PartitionTrace lost requests")
	}
}

func TestFacadeController(t *testing.T) {
	models := Replicas(Llama2_7B, 1)
	c, s := NewController(SLINFER(), Testbed(1, 0), models)
	c.Submit(Request{ID: 1, ModelName: models[0].Name, Arrival: 0, InputLen: 512, OutputLen: 5})
	s.RunUntil(30)
	if got := c.Collector.Met; got != 1 {
		t.Fatalf("met = %d, want 1", got)
	}
}

func TestFacadeTraceIOAndReplay(t *testing.T) {
	models := Replicas(Llama2_7B, 4)
	trace := BurstGPTTrace(models, 2, 1, 5)
	if len(trace.Requests) == 0 {
		t.Fatal("empty BurstGPT trace")
	}
	path := filepath.Join(t.TempDir(), "t.jsonl")
	meta := TraceMeta{Generator: "burstgpt", Seed: 5, BaseModel: Llama2_7B.Name}
	if err := SaveTrace(path, trace, meta); err != nil {
		t.Fatal(err)
	}
	loaded, gotMeta, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta = %+v, want %+v", gotMeta, meta)
	}
	opt := ReplayOptions{System: "sllm+c+s", CPUNodes: 1, GPUNodes: 1}
	mem, err := Replay(trace, opt)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := Replay(loaded, opt)
	if err != nil {
		t.Fatal(err)
	}
	if mem.Canonical() != disk.Canonical() {
		t.Fatal("replay of loaded trace diverged from in-memory run")
	}
	scaled := ScaleRate(trace, 2, 3)
	if len(scaled.Requests) <= len(trace.Requests) {
		t.Fatal("ScaleRate 2x did not raise request count")
	}
	if got := CompressTime(trace, 2).Duration; got != trace.Duration/2 {
		t.Fatalf("CompressTime duration %v, want %v", got, trace.Duration/2)
	}
	merged := MergeTraces(trace, SubsetModels(trace, models[0].Name))
	if err := merged.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCatalogExports(t *testing.T) {
	for _, m := range []Model{Llama32_3B, Llama2_7B, Llama2_13B, CodeLlama34B, Llama31_8B, DeepSeekQwen7B, Codestral22B} {
		if err := m.Validate(); err != nil {
			t.Error(err)
		}
	}
	for _, d := range []Dataset{AzureConv, AzureCode, HumanEval, ShareGPT, LongBench} {
		if d.Name == "" {
			t.Error("unnamed dataset export")
		}
	}
}

func TestFaultPresetUnknownNameIsError(t *testing.T) {
	if p, err := FaultPreset("rolling-restart", 4, 60, 1); err != nil || p == nil {
		t.Fatalf("known preset: plan=%v err=%v", p, err)
	}
	p, err := FaultPreset("rolling-restrat", 4, 60, 1)
	if err == nil || p != nil {
		t.Fatalf("typo'd preset: plan=%v err=%v, want an error", p, err)
	}
	for _, name := range faults.PresetNames {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid preset %q", err, name)
		}
	}
}

// TestCPUMeetsSLOMatchesProfile pins the facade's CPU gate to the profile
// it wraps on the heterogeneous example's model x input-length grid.
func TestCPUMeetsSLOMatchesProfile(t *testing.T) {
	feasible := 0
	for _, m := range []Model{Llama32_3B, Llama2_7B, Llama2_13B, CodeLlama34B} {
		prof := perfmodel.NewProfile(hwsim.XeonGen4, m, 1, 64)
		for _, l := range []int{256, 1024, 4096, 8192} {
			want := prof.CanMeet(l, slo.Default(l))
			if got := CPUMeetsSLO(m, l); got != want {
				t.Errorf("CPUMeetsSLO(%s, %d) = %v, want %v", m.Name, l, got, want)
			}
			if want {
				feasible++
			}
		}
	}
	if feasible == 0 || feasible == 16 {
		t.Fatalf("%d of 16 cells feasible; the grid no longer separates CPU-servable requests", feasible)
	}
}
