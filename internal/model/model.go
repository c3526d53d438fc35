// Package model defines the LLM catalog used throughout the reproduction:
// parameter counts, transformer shapes, and the derived memory footprints
// (weights and KV-cache bytes per token) that drive every placement and
// scaling decision in SLINFER.
package model

import "fmt"

// GiB is the number of bytes in a gibibyte.
const GiB = int64(1) << 30

// Precision is the numeric format model weights are served in.
type Precision int

const (
	// FP16 is the paper's default 16-bit serving precision.
	FP16 Precision = iota
	// INT4 is the AWQ-style 4-bit quantization evaluated in §X.
	INT4
)

// BytesPerParam returns the storage cost of one parameter.
func (p Precision) BytesPerParam() float64 {
	switch p {
	case INT4:
		return 0.5
	default:
		return 2
	}
}

func (p Precision) String() string {
	switch p {
	case INT4:
		return "int4"
	default:
		return "fp16"
	}
}

// Model describes one hosted LLM family member. Same-scale models behave
// alike (§IX-A), so the catalog captures the shapes that determine resource
// demand rather than the full architecture.
type Model struct {
	// Name is the catalog identifier, e.g. "llama-2-7b".
	Name string
	// Params is the parameter count (e.g. 6.7e9 for Llama-2-7B).
	Params float64
	// Layers is the number of transformer blocks.
	Layers int
	// Hidden is the model (embedding) dimension.
	Hidden int
	// KVHeads is the number of key/value heads (grouped-query attention);
	// equal to attention heads for classic multi-head attention.
	KVHeads int
	// HeadDim is the per-head dimension.
	HeadDim int
	// MaxContext is the maximum supported context length in tokens.
	MaxContext int
	// TPDegree is the tensor-parallel degree required: the number of GPU
	// nodes one instance spans (CodeLlama-34B uses 2 per §IX-E).
	TPDegree int
	// Precision is the serving precision.
	Precision Precision
}

// WeightBytes returns the memory footprint of the model weights.
//
// WeightBytes, KVBytesPerToken and SizeBillions read m in place: placement
// calls them through a *Model on every attempt, and a value receiver would
// copy the whole 80-byte Model at each call.
func (m *Model) WeightBytes() int64 {
	return int64(m.Params * m.Precision.BytesPerParam())
}

// KVBytesPerToken returns the KV-cache cost of one token across all layers:
// 2 tensors (K and V) x layers x kvHeads x headDim x 2 bytes. The KV cache
// stays FP16 even for INT4 weights, matching AWQ-style weight-only
// quantization.
func (m *Model) KVBytesPerToken() int64 {
	return int64(2 * m.Layers * m.KVHeads * m.HeadDim * 2)
}

// Quantized returns a copy of the model served at the given precision.
func (m Model) Quantized(p Precision) Model {
	q := m
	q.Precision = p
	q.Name = fmt.Sprintf("%s-%s", m.Name, p)
	return q
}

// SizeClass buckets models the way the paper reports them ("3B-sized",
// "7B-sized", ...): by rounded billions of parameters. It is a label; hot
// callers switch on SizeBillions instead of formatting one.
func (m Model) SizeClass() string {
	return fmt.Sprintf("%dB", m.SizeBillions())
}

// SizeBillions is the size bucket SizeClass labels: the parameter count
// rounded to whole billions.
func (m *Model) SizeBillions() int { return int(m.Params/1e9 + 0.5) }

func (m Model) String() string { return m.Name }

// Validate reports a descriptive error for malformed catalog entries.
func (m Model) Validate() error {
	switch {
	case m.Name == "":
		return fmt.Errorf("model: empty name")
	case m.Params <= 0:
		return fmt.Errorf("model %s: non-positive params", m.Name)
	case m.Layers <= 0 || m.Hidden <= 0 || m.KVHeads <= 0 || m.HeadDim <= 0:
		return fmt.Errorf("model %s: non-positive shape", m.Name)
	case m.MaxContext <= 0:
		return fmt.Errorf("model %s: non-positive max context", m.Name)
	case m.TPDegree < 1:
		return fmt.Errorf("model %s: TP degree < 1", m.Name)
	default:
		return nil
	}
}

// Catalog entries for the models the paper evaluates. Shapes follow the
// published architectures; Params are the true counts (6.7B for "7B" etc.)
// so that weight footprints match the paper's 14 GB / 26 GB figures.
var (
	// Llama32_3B is Llama-3.2-3B (28 layers, GQA with 8 KV heads).
	Llama32_3B = Model{
		Name: "llama-3.2-3b", Params: 3.2e9, Layers: 28, Hidden: 3072,
		KVHeads: 8, HeadDim: 128, MaxContext: 8192, TPDegree: 1,
	}
	// Llama2_7B is Llama-2-7B (32 layers, full multi-head attention).
	Llama2_7B = Model{
		Name: "llama-2-7b", Params: 6.7e9, Layers: 32, Hidden: 4096,
		KVHeads: 32, HeadDim: 128, MaxContext: 4096, TPDegree: 1,
	}
	// Llama2_13B is Llama-2-13B (40 layers).
	Llama2_13B = Model{
		Name: "llama-2-13b", Params: 13.0e9, Layers: 40, Hidden: 5120,
		KVHeads: 40, HeadDim: 128, MaxContext: 4096, TPDegree: 1,
	}
	// CodeLlama34B is CodeLlama-34B (48 layers, GQA, served with TP=2).
	CodeLlama34B = Model{
		Name: "codellama-34b", Params: 33.7e9, Layers: 48, Hidden: 8192,
		KVHeads: 8, HeadDim: 128, MaxContext: 16384, TPDegree: 2,
	}
	// Llama31_8B is Llama-3.1-8B (32 layers, GQA, 128K context; used for
	// the long-context dataset study in §IX-I1, capped here at 32K).
	Llama31_8B = Model{
		Name: "llama-3.1-8b", Params: 8.0e9, Layers: 32, Hidden: 4096,
		KVHeads: 8, HeadDim: 128, MaxContext: 32768, TPDegree: 1,
	}
	// DeepSeekQwen7B is DeepSeek-R1-Distill-Qwen-7B (§IX-A's same-scale
	// comparison point).
	DeepSeekQwen7B = Model{
		Name: "deepseek-r1-distill-qwen-7b", Params: 7.6e9, Layers: 28,
		Hidden: 3584, KVHeads: 4, HeadDim: 128, MaxContext: 32768, TPDegree: 1,
	}
	// Codestral22B is Codestral-22B-v0.1, used in the §X quantization study.
	Codestral22B = Model{
		Name: "codestral-22b", Params: 22.2e9, Layers: 56, Hidden: 6144,
		KVHeads: 8, HeadDim: 128, MaxContext: 32768, TPDegree: 1,
	}
)

// Catalog returns all built-in models.
func Catalog() []Model {
	return []Model{
		Llama32_3B, Llama2_7B, Llama2_13B, CodeLlama34B,
		Llama31_8B, DeepSeekQwen7B, Codestral22B,
	}
}

// ByName returns the catalog model with the given name.
func ByName(name string) (Model, bool) {
	for _, m := range Catalog() {
		if m.Name == name {
			return m, true
		}
	}
	return Model{}, false
}

// Replicas derives n distinct hosted models from a base model, the way the
// paper generates "32 3B-sized models ... from Llama-3.2-3B" (§IX-B). Each
// replica has identical resource behaviour but a unique identity.
func Replicas(base Model, n int) []Model {
	out := make([]Model, n)
	for i := range out {
		out[i] = base
		out[i].Name = fmt.Sprintf("%s#%02d", base.Name, i)
	}
	return out
}
