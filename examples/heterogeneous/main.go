// Heterogeneous: explore the CPU-serving opportunity of §IV — which
// (model, input length, SLO) combinations an AMX CPU can host on its own,
// and how request traffic splits between CPUs and GPUs under SLINFER for
// datasets with very different length profiles (Figure 35).
package main

import (
	"fmt"

	"slinfer"
)

func main() {
	fmt.Println("CPU feasibility (gen-4 AMX Xeon, paper SLOs):")
	fmt.Printf("  %-14s", "input len")
	for _, m := range []slinfer.Model{slinfer.Llama32_3B, slinfer.Llama2_7B, slinfer.Llama2_13B, slinfer.CodeLlama34B} {
		fmt.Printf("  %-6s", m.SizeClass())
	}
	fmt.Println()
	for _, l := range []int{256, 1024, 4096, 8192} {
		fmt.Printf("  %-14d", l)
		for _, m := range []slinfer.Model{slinfer.Llama32_3B, slinfer.Llama2_7B, slinfer.Llama2_13B, slinfer.CodeLlama34B} {
			ok := "yes"
			if l > m.MaxContext || !slinfer.CPUMeetsSLO(m, l) {
				ok = "-"
			}
			fmt.Printf("  %-6s", ok)
		}
		fmt.Println()
	}

	fmt.Println("\nTraffic split under SLINFER, 64 x 8B models, by dataset:")
	cluster := slinfer.Testbed(4, 4)
	models := slinfer.Replicas(slinfer.Llama31_8B, 64)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	for _, ds := range []slinfer.Dataset{slinfer.HumanEval, slinfer.AzureConv, slinfer.LongBench} {
		trace := slinfer.CustomTrace(slinfer.TraceConfig{
			ModelNames: names, Duration: 20 * 60, Dataset: ds, Seed: 3,
			MaxInput: slinfer.Llama31_8B.MaxContext,
		})
		rep := slinfer.Run(slinfer.SLINFER(), cluster, models, trace)
		fmt.Printf("  %-10s  CPU tokens/s-per-node %6.1f on %.2f nodes | GPU %6.1f on %.2f nodes | SLO %.1f%%\n",
			ds.Name, rep.DecodeSpeed[slinfer.CPU], rep.AvgNodesUsed[slinfer.CPU],
			rep.DecodeSpeed[slinfer.GPU], rep.AvgNodesUsed[slinfer.GPU], rep.SLORate*100)
	}
	fmt.Println("\nShort-prompt datasets live on CPUs; LongBench's 32K prompts push")
	fmt.Println("SLINFER back onto GPUs (paper §IX-I1).")
}
