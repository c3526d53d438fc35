package experiments

import (
	"fmt"

	"slinfer/internal/baseline"
	"slinfer/internal/core"
	"slinfer/internal/hwsim"
	"slinfer/internal/metrics"
	"slinfer/internal/model"
	"slinfer/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig22a",
		Title: "End-to-end comparison, 3B-sized models (32/64/128)",
		Paper: "SLINFER serves 32 models on ~3 CPUs + 0 GPUs; +86-154% SLO-met over sllm at 128",
		Run:   func(s Scale) Result { return runFig22("fig22a", model.Llama32_3B, s) },
	})
	register(Experiment{
		ID:    "fig22b",
		Title: "End-to-end comparison, 7B-sized models",
		Paper: "SLINFER ~0.9 GPUs at 32 models vs sllm 3.3; gap narrows at 128",
		Run:   func(s Scale) Result { return runFig22("fig22b", model.Llama2_7B, s) },
	})
	register(Experiment{
		ID:    "fig22c",
		Title: "End-to-end comparison, 13B-sized models",
		Paper: "larger models shrink sharing potential; all systems saturate at 128",
		Run:   func(s Scale) Result { return runFig22("fig22c", model.Llama2_13B, s) },
	})
	register(Experiment{
		ID:    "fig23",
		Title: "Ablation: disabling each SLINFER component (64 x 7B)",
		Paper: "disabling sharing costs most (SLO ~0.89); every ablation uses more GPUs",
		Run:   runFig23,
	})
	register(Experiment{
		ID:    "fig24",
		Title: "CPU scalability: adding CPU vs GPU nodes (64 x 7B, 2 GPUs base)",
		Paper: "3-4 added CPU nodes match one added GPU node",
		Run:   runFig24,
	})
	register(Experiment{
		ID:    "fig25",
		Title: "GPU efficiency: memory utilization and batch size (3B:7B:13B = 2:2:2)",
		Paper: "SLINFER memory utilization near 1 vs three-tier baseline; ~74% higher batch than sllm",
		Run:   runFig25,
	})
	register(Experiment{
		ID:    "fig26",
		Title: "Mixed deployment with 34B TP=2 under popularity ratios",
		Paper: "SLINFER always fewest GPUs; advantage shrinks as large models dominate",
		Run:   runFig26,
	})
	register(Experiment{
		ID:    "tab03",
		Title: "Prefill-decode disaggregation (Table III)",
		Paper: "PD disaggregation raises GPU usage and cuts SLO rate in this regime",
		Run:   runTab03,
	})
}

func runFig22(id string, base model.Model, s Scale) Result {
	res := Result{
		ID: id, Title: fmt.Sprintf("end-to-end, %s-sized models", base.SizeClass()),
		Header: []string{"models", "system", "slo_met", "total", "slo_rate", "ttft_p50_s", "cpu_nodes", "gpu_nodes", "dec_cpu", "dec_gpu"},
	}
	counts := []int{32, 128}
	if s == Full {
		counts = []int{32, 64, 128}
	}
	type cell struct {
		n      int
		cfg    core.Config
		models []model.Model
		tr     workload.Trace
	}
	var cells []cell
	for _, n := range counts {
		models, tr := paperTrace(base, n, s, uint64(22+n))
		for _, cfg := range baseline.Systems() {
			cells = append(cells, cell{n, cfg, models, tr})
		}
	}
	res.Rows = sweep(len(cells), func(i int) []string {
		c := cells[i]
		rep := runSystem(c.cfg, hwsim.Testbed(4, 4), c.models, c.tr)
		return []string{
			fmt.Sprint(c.n), c.cfg.Name,
			fmt.Sprint(rep.Met), fmt.Sprint(rep.Total), f3(rep.SLORate), f2(rep.TTFTP50),
			f2(rep.AvgNodesUsed[hwsim.CPU]), f2(rep.AvgNodesUsed[hwsim.GPU]),
			f1(rep.DecodeSpeed[hwsim.CPU]), f1(rep.DecodeSpeed[hwsim.GPU]),
		}
	})
	return res
}

func runFig23(s Scale) Result {
	res := Result{
		ID: "fig23", Title: "component ablation, 64 x 7B",
		Header: []string{"variant", "slo_rate", "cpu_nodes", "gpu_nodes", "met", "total"},
	}
	models, tr := paperTrace(model.Llama2_7B, 64, s, 23)
	labels := []string{"SLINFER-Full", "w/o CPU", "w/o Consolidation", "w/o Sharing"}
	res.Rows = sweep(len(labels), func(i int) []string {
		label := labels[i]
		rep := runSystem(baseline.Ablations()[label], hwsim.Testbed(4, 4), models, tr)
		return []string{
			label, f3(rep.SLORate),
			f2(rep.AvgNodesUsed[hwsim.CPU]), f2(rep.AvgNodesUsed[hwsim.GPU]),
			fmt.Sprint(rep.Met), fmt.Sprint(rep.Total),
		}
	})
	return res
}

func runFig24(s Scale) Result {
	res := Result{
		ID: "fig24", Title: "SLO-met requests vs added nodes (base: 2 GPUs)",
		Header: []string{"added", "kind", "slo_met", "total"},
	}
	models, tr := paperTrace(model.Llama2_7B, 64, s, 24)
	adds := []int{0, 2, 4, 8}
	if s == Full {
		adds = []int{0, 1, 2, 3, 4, 6, 8}
	}
	type cell struct {
		k    int
		kind string
	}
	var cells []cell
	for _, k := range adds {
		cells = append(cells, cell{k, "CPU"})
		if k <= 4 {
			cells = append(cells, cell{k, "GPU"})
		}
	}
	res.Rows = sweep(len(cells), func(i int) []string {
		c := cells[i]
		specs := hwsim.Testbed(c.k, 2)
		if c.kind == "GPU" {
			specs = hwsim.Testbed(0, 2+c.k)
		}
		rep := runSystem(core.SLINFER(), specs, models, tr)
		return []string{fmt.Sprint(c.k), c.kind, fmt.Sprint(rep.Met), fmt.Sprint(rep.Total)}
	})
	return res
}

func runFig25(s Scale) Result {
	res := Result{
		ID: "fig25", Title: "GPU efficiency under mixed sizes (2:2:2)",
		Header: []string{"system", "mem_P25", "mem_P50", "mem_P90", "mem_mean", "avg_batch", "batch_P90"},
	}
	n := 48
	if s == Full {
		n = 96
	}
	models, tr := mixedTrace(n, s, 25)
	cfgs := []core.Config{core.Sllm(), core.SllmCS(), core.SLINFER()}
	res.Rows = sweep(len(cfgs), func(i int) []string {
		cfg := cfgs[i]
		rep := runSystem(cfg, hwsim.Testbed(4, 4), models, tr)
		cdf := rep.MemUtilCDF[hwsim.GPU]
		at := func(p float64) string {
			if len(cdf) == 0 {
				return "-"
			}
			return pct(cdf[int(p*float64(len(cdf)-1))])
		}
		batchP90 := rep.BatchQuantile(0.9)
		return []string{
			cfg.Name, at(0.25), at(0.50), at(0.90), pct(rep.MeanMemUtil[hwsim.GPU]),
			f1(rep.AvgBatch), fmt.Sprint(batchP90),
		}
	})
	return res
}

// runFig26 builds model populations at the paper's 3B:7B:13B:34B popularity
// ratios and reports GPU usage per system on 4 CPUs + 6 GPUs.
func runFig26(s Scale) Result {
	res := Result{
		ID: "fig26", Title: "mixed deployment with 34B (4 CPU + 6 GPU)",
		Header: []string{"ratio", "system", "gpus_used", "cpu_used", "slo_rate"},
	}
	ratios := []struct {
		label  string
		counts [4]int // 3B:7B:13B:34B out of ~28 models
	}{
		{"4:1:1:1", [4]int{16, 4, 4, 4}},
		{"2:2:2:1", [4]int{8, 8, 8, 4}},
		{"1:1:4:1", [4]int{4, 4, 16, 4}},
		{"0:0:0:1", [4]int{0, 0, 0, 8}},
	}
	if s == Quick {
		ratios = ratios[:2]
	}
	bases := []model.Model{model.Llama32_3B, model.Llama2_7B, model.Llama2_13B, model.CodeLlama34B}
	type cell struct {
		label  string
		cfg    core.Config
		models []model.Model
		tr     workload.Trace
	}
	var cells []cell
	for _, r := range ratios {
		var models []model.Model
		var names []string
		for bi, cnt := range r.counts {
			for k := 0; k < cnt; k++ {
				m := bases[bi]
				m.Name = fmt.Sprintf("%s#r%d-%d", m.Name, bi, k)
				models = append(models, m)
				names = append(names, m.Name)
			}
		}
		tr := workload.Generate(workload.TraceConfig{
			ModelNames: names, Duration: traceMinutes(s), Seed: 26,
			Dataset: workload.AzureConv, MaxInput: 4096,
		})
		for _, cfg := range []core.Config{core.SllmC(), core.SllmCS(), core.SLINFER()} {
			cells = append(cells, cell{r.label, cfg, models, tr})
		}
	}
	res.Rows = sweep(len(cells), func(i int) []string {
		c := cells[i]
		rep := runSystem(c.cfg, hwsim.Testbed(4, 6), c.models, c.tr)
		return []string{
			c.label, c.cfg.Name,
			f2(rep.AvgNodesUsed[hwsim.GPU]), f2(rep.AvgNodesUsed[hwsim.CPU]), f3(rep.SLORate),
		}
	})
	return res
}

func runTab03(s Scale) Result {
	res := Result{
		ID: "tab03", Title: "aggregated vs disaggregated prefill-decode",
		Header: []string{"system", "models", "gpu_agg", "gpu_pd", "slo_agg", "slo_pd"},
	}
	counts := []int{32}
	if s == Full {
		counts = []int{32, 64, 128}
	}
	type cell struct {
		cfg    core.Config
		n      int
		models []model.Model
		tr     workload.Trace
	}
	var cells []cell
	for _, cfg := range []core.Config{core.SllmCS(), core.SLINFER()} {
		for _, n := range counts {
			models, tr := paperTrace(model.Llama2_7B, n, s, uint64(30+n))
			cells = append(cells, cell{cfg, n, models, tr})
		}
	}
	// The aggregated and disaggregated runs of one row are independent
	// cells too; flatten to 2x so they parallelize (sweep must not nest:
	// a cell holding a worker slot would deadlock waiting for inner ones).
	reps := sweep(2*len(cells), func(i int) metrics.Report {
		c := cells[i/2]
		cfg := c.cfg
		if i%2 == 1 {
			cfg = baseline.Disaggregated(cfg)
		}
		return runSystem(cfg, hwsim.Testbed(4, 4), c.models, c.tr)
	})
	for ri, c := range cells {
		agg, pd := reps[2*ri], reps[2*ri+1]
		res.Rows = append(res.Rows, []string{
			c.cfg.Name, fmt.Sprint(c.n),
			f2(agg.AvgNodesUsed[hwsim.GPU]), f2(pd.AvgNodesUsed[hwsim.GPU]),
			f3(agg.SLORate), f3(pd.SLORate),
		})
	}
	return res
}
