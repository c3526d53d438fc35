package model

import (
	"testing"
	"testing/quick"
)

func TestWeightBytesMatchPaper(t *testing.T) {
	// §IV-B: "7B and 13B LLMs ... need at least 14GB and 26GB of memory".
	cases := []struct {
		m       Model
		wantGiB float64
		tol     float64
	}{
		{Llama2_7B, 13.4 * 1e9 / float64(GiB), 0.3}, // ~12.5 GiB = 13.4 GB
		{Llama2_13B, 26.0 * 1e9 / float64(GiB), 0.3},
		{Llama32_3B, 6.4 * 1e9 / float64(GiB), 0.3},
		{CodeLlama34B, 67.4 * 1e9 / float64(GiB), 0.5},
	}
	for _, c := range cases {
		got := float64(c.m.WeightBytes()) / float64(GiB)
		if got < c.wantGiB-c.tol || got > c.wantGiB+c.tol {
			t.Errorf("%s weights = %.2f GiB, want ~%.2f", c.m.Name, got, c.wantGiB)
		}
	}
}

func TestKVBytesPerToken(t *testing.T) {
	// Llama-2-7B: 2 * 32 layers * 32 heads * 128 dim * 2B = 512 KiB/token.
	if got := Llama2_7B.KVBytesPerToken(); got != 524288 {
		t.Errorf("7B KV/token = %d, want 524288", got)
	}
	// Llama-2-13B: 2 * 40 * 40 * 128 * 2 = 819200.
	if got := Llama2_13B.KVBytesPerToken(); got != 819200 {
		t.Errorf("13B KV/token = %d, want 819200", got)
	}
	// GQA models must be far cheaper per token than MHA peers.
	if Llama31_8B.KVBytesPerToken() >= Llama2_7B.KVBytesPerToken()/3 {
		t.Errorf("GQA 8B KV/token = %d should be <1/3 of MHA 7B %d",
			Llama31_8B.KVBytesPerToken(), Llama2_7B.KVBytesPerToken())
	}
}

func TestQuantizedHalvesNothingButWeights(t *testing.T) {
	q := Codestral22B.Quantized(INT4)
	if q.WeightBytes() != Codestral22B.WeightBytes()/4 {
		t.Errorf("INT4 weights = %d, want quarter of %d", q.WeightBytes(), Codestral22B.WeightBytes())
	}
	if q.KVBytesPerToken() != Codestral22B.KVBytesPerToken() {
		t.Error("quantization must not change KV bytes per token")
	}
	if q.Name == Codestral22B.Name {
		t.Error("quantized model must have distinct identity")
	}
	// §X: 22B fp16 weights ~44GB (sharing-hostile on 80GB), INT4 ~11GB.
	fp16GB := float64(Codestral22B.WeightBytes()) / 1e9
	if fp16GB < 42 || fp16GB > 46 {
		t.Errorf("22B fp16 weights = %.1f GB, want ~44", fp16GB)
	}
}

func TestCatalogValid(t *testing.T) {
	for _, m := range Catalog() {
		if err := m.Validate(); err != nil {
			t.Errorf("catalog entry invalid: %v", err)
		}
	}
	if _, ok := ByName("llama-2-7b"); !ok {
		t.Error("ByName failed for llama-2-7b")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName matched a nonexistent model")
	}
}

func TestSizeClass(t *testing.T) {
	cases := []struct {
		m        Model
		label    string
		billions int
	}{
		{Llama32_3B, "3B", 3},
		{Llama2_7B, "7B", 7},
		{Llama2_13B, "13B", 13},
		{CodeLlama34B, "34B", 34},
	}
	for _, c := range cases {
		m, _ := ByName(c.m.Name)
		if got := m.SizeClass(); got != c.label {
			t.Errorf("%s SizeClass = %s, want %s", m.Name, got, c.label)
		}
		if got := m.SizeBillions(); got != c.billions {
			t.Errorf("%s SizeBillions = %d, want %d", m.Name, got, c.billions)
		}
	}
}

func TestReplicasDistinctIdentities(t *testing.T) {
	reps := Replicas(Llama2_7B, 64)
	if len(reps) != 64 {
		t.Fatalf("len = %d", len(reps))
	}
	seen := map[string]bool{}
	for _, r := range reps {
		if seen[r.Name] {
			t.Fatalf("duplicate replica name %s", r.Name)
		}
		seen[r.Name] = true
		if r.WeightBytes() != Llama2_7B.WeightBytes() {
			t.Fatal("replica changed resource behaviour")
		}
	}
}

// Property: weight bytes scale linearly in params; KV is positive and
// independent of precision.
func TestModelFootprintProperties(t *testing.T) {
	f := func(p uint8, layers, heads uint8) bool {
		m := Model{
			Name: "x", Params: float64(p)*1e8 + 1e8, Layers: int(layers%64) + 1,
			Hidden: 1024, KVHeads: int(heads%16) + 1, HeadDim: 128,
			MaxContext: 2048, TPDegree: 1,
		}
		if m.WeightBytes() <= 0 || m.KVBytesPerToken() <= 0 {
			return false
		}
		q := m.Quantized(INT4)
		return q.KVBytesPerToken() == m.KVBytesPerToken() && q.WeightBytes() < m.WeightBytes()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
