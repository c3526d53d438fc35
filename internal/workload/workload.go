// Package workload synthesizes the paper's evaluation workloads: request
// token-length distributions matched to the five datasets characterized in
// Figure 34, and multi-model invocation traces with Azure-Serverless-style
// popularity skew and burstiness (Figure 21) plus a BurstGPT-style variant
// (§IX-I2).
//
// The real Azure traces are proprietary; these generators reproduce the
// properties the paper's systems are sensitive to — hot/cold skew (top
// functions contribute ~26% of requests), burstiness (concurrency from 1 to
// >128 on hot models), and aggregate request rates (79/156/309 RPM for
// 32/64/128 models over 30 minutes).
package workload

import (
	"fmt"
	"math"
	"sort"

	"slinfer/internal/sim"
)

// Request is one inference invocation.
type Request struct {
	// ID is unique within a trace.
	ID int64
	// ModelName identifies the hosted model (function) invoked.
	ModelName string
	// Arrival is the virtual arrival time.
	Arrival sim.Time
	// InputLen is the prompt length in tokens.
	InputLen int
	// OutputLen is the (ground-truth) number of tokens the request will
	// generate; the serving system does not know it in advance.
	OutputLen int
	// PrefixKey, when non-empty, identifies the request's shareable prompt
	// prefix for the tiered KV cache (kvcache.TieredStore). It is
	// hierarchical: "tpl3@512/sess17" pins the first 512 tokens to template
	// 3 and the remainder to session 17 (see kvcache.segCursor). Empty
	// means no cross-request sharing.
	PrefixKey string
}

// Dataset is a parametric token-length distribution: log-normal input and
// output lengths with hard caps, tuned to the CDF shapes in Figure 34.
type Dataset struct {
	// Name identifies the dataset.
	Name string
	// InMedian and InSigma parameterize the log-normal input length.
	InMedian float64
	InSigma  float64
	// InMax caps input length (tokens).
	InMax int
	// OutMedian and OutSigma parameterize the log-normal output length.
	OutMedian float64
	OutSigma  float64
	// OutMax caps output length (tokens).
	OutMax int
}

// The five datasets from §IX-A and §IX-I1 (Figure 34).
var (
	// AzureConv is the Azure LLM Conversation dataset: ~1K-token median
	// inputs, 97.9% under 4K (§IV-A2); few-hundred-token outputs.
	AzureConv = Dataset{Name: "AzureConv", InMedian: 1024, InSigma: 0.68, InMax: 8192,
		OutMedian: 192, OutSigma: 0.65, OutMax: 1024}
	// AzureCode is the Azure LLM Code dataset: longer inputs (85.9% under
	// 4K), short completions.
	AzureCode = Dataset{Name: "AzureCode", InMedian: 2048, InSigma: 0.66, InMax: 16384,
		OutMedian: 48, OutSigma: 0.9, OutMax: 512}
	// HumanEval has short prompts and short completions.
	HumanEval = Dataset{Name: "HumanEval", InMedian: 160, InSigma: 0.5, InMax: 1024,
		OutMedian: 64, OutSigma: 0.7, OutMax: 512}
	// ShareGPT has short-to-medium inputs and long outputs (the paper notes
	// its longer generations create more batching opportunity, §IX-I1).
	ShareGPT = Dataset{Name: "ShareGPT", InMedian: 320, InSigma: 0.9, InMax: 4096,
		OutMedian: 320, OutSigma: 0.8, OutMax: 2048}
	// LongBench is the long-context benchmark: up to 32K-token inputs.
	LongBench = Dataset{Name: "LongBench", InMedian: 7168, InSigma: 0.7, InMax: 32768,
		OutMedian: 128, OutSigma: 0.6, OutMax: 512}
)

// Datasets returns the five built-in datasets.
func Datasets() []Dataset {
	return []Dataset{AzureConv, AzureCode, HumanEval, ShareGPT, LongBench}
}

// DatasetByName looks a dataset up by name.
func DatasetByName(name string) (Dataset, bool) {
	for _, d := range Datasets() {
		if d.Name == name {
			return d, true
		}
	}
	return Dataset{}, false
}

// SampleInput draws an input length.
func (d Dataset) SampleInput(rng *sim.RNG) int {
	return sampleLen(rng, d.InMedian, d.InSigma, d.InMax)
}

// SampleOutput draws an output length.
func (d Dataset) SampleOutput(rng *sim.RNG) int {
	return sampleLen(rng, d.OutMedian, d.OutSigma, d.OutMax)
}

func sampleLen(rng *sim.RNG, median, sigma float64, max int) int {
	v := rng.LogNormal(math.Log(median), sigma)
	n := int(v)
	if n < 1 {
		n = 1
	}
	if n > max {
		n = max
	}
	return n
}

// TraceConfig parameterizes a multi-model serverless trace.
type TraceConfig struct {
	// ModelNames are the hosted model identities (functions).
	ModelNames []string
	// Duration is the trace length (the paper uses 30 minutes).
	Duration sim.Duration
	// Dataset provides token lengths.
	Dataset Dataset
	// AggregateRPM is the target cluster-wide requests per minute. Zero
	// selects the paper's scaling: ~2.45 RPM per model (79 RPM at 32
	// models, 156 at 64, 309 at 128).
	AggregateRPM float64
	// ZipfS is the popularity skew exponent (default 1.0: top function of
	// 128 contributes ~20-26% of requests, matching §III-C).
	ZipfS float64
	// BurstMean is the mean burst size on hot models (default 4);
	// burstiness is what drives the >128 concurrency spikes of Figure 12.
	BurstMean float64
	// Seed makes the trace deterministic.
	Seed uint64
	// MaxInput optionally caps input lengths (e.g. a model's context limit).
	MaxInput int
}

func (c *TraceConfig) defaults() {
	if c.Duration <= 0 {
		c.Duration = 30 * sim.Minute
	}
	if c.AggregateRPM <= 0 {
		c.AggregateRPM = 2.45 * float64(len(c.ModelNames))
	}
	if c.ZipfS <= 0 {
		c.ZipfS = 1.0
	}
	if c.BurstMean <= 0 {
		c.BurstMean = 4
	}
	if c.Dataset.Name == "" {
		c.Dataset = AzureConv
	}
}

// Trace is a generated request stream plus its per-model rates.
type Trace struct {
	Requests []Request
	// RPM maps model name to its mean requests per minute in this trace.
	RPM map[string]float64
	// Duration is the configured trace length.
	Duration sim.Duration
}

// Generate builds a deterministic trace per the config.
func Generate(cfg TraceConfig) Trace {
	cfg.defaults()
	n := len(cfg.ModelNames)
	if n == 0 {
		return Trace{RPM: map[string]float64{}}
	}
	rng := sim.NewRNG(cfg.Seed^0x51f3a7, cfg.Seed+1)
	popRNG := rng.Derive("popularity")
	arrRNG := rng.Derive("arrivals")
	lenRNG := rng.Derive("lengths")

	// Zipf popularity over a random permutation of models so model index
	// does not encode popularity.
	weights := make([]float64, n)
	var sum float64
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -cfg.ZipfS)
		sum += weights[i]
	}
	perm := popRNG.Perm(n)

	totalReqs := cfg.AggregateRPM * cfg.Duration.Seconds() / 60
	var reqs []Request
	rpm := make(map[string]float64, n)
	var id int64
	for rank, w := range weights {
		name := cfg.ModelNames[perm[rank]]
		mean := totalReqs * w / sum
		rpm[name] = mean / (cfg.Duration.Seconds() / 60)
		// Burst sizes grow with popularity: hot functions burst harder
		// (§III-C), cold ones are near-Poisson.
		burst := 1 + (cfg.BurstMean-1)*math.Sqrt(w/weights[0])
		emitModelArrivals(arrRNG, lenRNG, cfg, name, mean, burst, &id, &reqs)
	}
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].Arrival != reqs[j].Arrival {
			return reqs[i].Arrival < reqs[j].Arrival
		}
		return reqs[i].ID < reqs[j].ID
	})
	return Trace{Requests: reqs, RPM: rpm, Duration: cfg.Duration}
}

// emitModelArrivals generates one model's arrivals as bursts with
// exponential inter-burst gaps: a compound-Poisson process whose mean count
// over the trace is meanReqs.
func emitModelArrivals(arrRNG, lenRNG *sim.RNG, cfg TraceConfig, name string,
	meanReqs, burstMean float64, id *int64, out *[]Request) {
	if meanReqs <= 0 {
		return
	}
	dur := cfg.Duration.Seconds()
	meanBursts := meanReqs / burstMean
	if meanBursts < 1e-9 {
		return
	}
	gap := dur / meanBursts
	for t := arrRNG.Exp(gap); t < dur; t += arrRNG.Exp(gap) {
		// Geometric-ish burst size with the right mean.
		size := 1
		for arrRNG.Float64() < 1-1/burstMean {
			size++
			if size >= 256 {
				break
			}
		}
		at := t
		for i := 0; i < size; i++ {
			in := cfg.Dataset.SampleInput(lenRNG)
			if cfg.MaxInput > 0 && in > cfg.MaxInput {
				in = cfg.MaxInput
			}
			*out = append(*out, Request{
				ID:        *id,
				ModelName: name,
				Arrival:   sim.Time(at),
				InputLen:  in,
				OutputLen: cfg.Dataset.SampleOutput(lenRNG),
			})
			*id++
			// Requests within a burst arrive within seconds of each other.
			at += arrRNG.Exp(2.0)
			if at >= dur {
				break
			}
		}
	}
}

// BurstGPTConfig parameterizes the BurstGPT-style trace of §IX-I2: a
// centralized bursty request stream redistributed across models following a
// Pareto distribution.
type BurstGPTConfig struct {
	ModelNames []string
	Duration   sim.Duration
	// RPS is the aggregate request rate (the paper sweeps 0.5-4).
	RPS float64
	// ParetoAlpha shapes the model split (default 1.1).
	ParetoAlpha float64
	Dataset     Dataset
	Seed        uint64
	MaxInput    int
}

// GenerateBurstGPT builds a BurstGPT-style trace.
func GenerateBurstGPT(cfg BurstGPTConfig) Trace {
	if cfg.Duration <= 0 {
		cfg.Duration = 30 * sim.Minute
	}
	if cfg.ParetoAlpha <= 0 {
		cfg.ParetoAlpha = 1.1
	}
	if cfg.Dataset.Name == "" {
		cfg.Dataset = AzureConv
	}
	rng := sim.NewRNG(cfg.Seed^0xb57a9, cfg.Seed+7)
	split := rng.Derive("split")
	arr := rng.Derive("arrivals")
	lens := rng.Derive("lengths")

	n := len(cfg.ModelNames)
	weights := make([]float64, n)
	var sum float64
	for i := range weights {
		weights[i] = split.Pareto(1, cfg.ParetoAlpha)
		sum += weights[i]
	}
	cum := make([]float64, n)
	acc := 0.0
	for i, w := range weights {
		acc += w / sum
		cum[i] = acc
	}

	// Bursty aggregate stream: alternating calm and burst regimes.
	dur := cfg.Duration.Seconds()
	var reqs []Request
	var id int64
	t := 0.0
	rpm := make(map[string]float64, n)
	for t < dur {
		// Regime length 20-80 s; burst regimes run at 3x the base rate,
		// calm at 0.5x, averaging ~RPS overall.
		regime := 20 + arr.Float64()*60
		rate := cfg.RPS * 0.5
		if arr.Float64() < 0.4 {
			rate = cfg.RPS * 1.75
		}
		end := t + regime
		if end > dur {
			end = dur
		}
		for t += arr.Exp(1 / rate); t < end; t += arr.Exp(1 / rate) {
			u := arr.Float64()
			mi := sort.SearchFloat64s(cum, u)
			if mi >= n {
				mi = n - 1
			}
			name := cfg.ModelNames[mi]
			in := cfg.Dataset.SampleInput(lens)
			if cfg.MaxInput > 0 && in > cfg.MaxInput {
				in = cfg.MaxInput
			}
			reqs = append(reqs, Request{
				ID: id, ModelName: name, Arrival: sim.Time(t),
				InputLen: in, OutputLen: cfg.Dataset.SampleOutput(lens),
			})
			rpm[name]++
			id++
		}
		t = end
	}
	for k := range rpm {
		rpm[k] /= cfg.Duration.Seconds() / 60
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })
	return Trace{Requests: reqs, RPM: rpm, Duration: cfg.Duration}
}

// Stats summarizes a trace the way Figure 21 characterizes the Azure traces.
type Stats struct {
	TotalRequests int
	AggregateRPM  float64
	// PerModelRPM is sorted ascending (for CDF plots).
	PerModelRPM []float64
	// PerMinute is the request count in each minute of the trace.
	PerMinute []int
	// TopShare is the fraction of requests from the hottest model.
	TopShare float64
}

// Summarize computes trace statistics.
func Summarize(tr Trace) Stats {
	s := Stats{TotalRequests: len(tr.Requests)}
	if tr.Duration <= 0 {
		return s
	}
	minutes := int(tr.Duration.Seconds()/60 + 0.5)
	if minutes < 1 {
		minutes = 1
	}
	s.PerMinute = make([]int, minutes)
	counts := map[string]int{}
	for _, r := range tr.Requests {
		m := int(r.Arrival.Sub(0).Seconds() / 60)
		if m >= 0 && m < minutes {
			s.PerMinute[m]++
		}
		counts[r.ModelName]++
	}
	s.AggregateRPM = float64(len(tr.Requests)) / float64(minutes)
	top := 0
	for name := range tr.RPM {
		c := counts[name]
		s.PerModelRPM = append(s.PerModelRPM, float64(c)/float64(minutes))
		if c > top {
			top = c
		}
	}
	sort.Float64s(s.PerModelRPM)
	if len(tr.Requests) > 0 {
		s.TopShare = float64(top) / float64(len(tr.Requests))
	}
	return s
}

// ConcurrencyCDF estimates offered concurrency per model over time: the
// number of in-flight requests assuming each holds the system for
// (outputLen x tpotSeconds) plus a prefill second. Used for Figures 9 and 12,
// which characterize the workload independent of any serving system.
func ConcurrencyCDF(tr Trace, modelName string, tpotSeconds float64) []int {
	type ev struct {
		at    float64
		delta int
	}
	var evs []ev
	for _, r := range tr.Requests {
		if r.ModelName != modelName {
			continue
		}
		start := r.Arrival.Sub(0).Seconds()
		end := start + 1 + float64(r.OutputLen)*tpotSeconds
		evs = append(evs, ev{start, +1}, ev{end, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].delta < evs[j].delta
	})
	var cur int
	var samples []int
	for _, e := range evs {
		cur += e.delta
		if e.delta > 0 {
			samples = append(samples, cur)
		}
	}
	sort.Ints(samples)
	return samples
}

// HottestModel returns the model with the highest request count.
func HottestModel(tr Trace) string {
	counts := map[string]int{}
	best, bestN := "", -1
	for _, r := range tr.Requests {
		counts[r.ModelName]++
		if counts[r.ModelName] > bestN {
			best, bestN = r.ModelName, counts[r.ModelName]
		}
	}
	return best
}

// Validate checks trace invariants: sorted arrivals within [0, Duration),
// positive lengths, unique IDs.
func (tr Trace) Validate() error {
	seen := make(map[int64]bool, len(tr.Requests))
	var prev sim.Time = -1
	for i, r := range tr.Requests {
		if r.Arrival < prev {
			return fmt.Errorf("request %d: arrivals not sorted", i)
		}
		prev = r.Arrival
		if r.Arrival < 0 || sim.Duration(r.Arrival) >= tr.Duration {
			return fmt.Errorf("request %d: arrival %v outside [0, %v)", i, r.Arrival, tr.Duration)
		}
		if r.InputLen < 1 || r.OutputLen < 1 {
			return fmt.Errorf("request %d: non-positive lengths", i)
		}
		if seen[r.ID] {
			return fmt.Errorf("request %d: duplicate ID %d", i, r.ID)
		}
		seen[r.ID] = true
	}
	return nil
}
