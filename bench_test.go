// Benchmarks that regenerate every table and figure in the paper's
// evaluation. Each BenchmarkExp_* runs the corresponding experiment from
// internal/experiments at Quick scale (shortened traces so the full suite
// stays tractable), prints the regenerated table into the benchmark log,
// and reports its headline numbers as benchmark metrics.
//
// Paper-scale runs: `go run ./cmd/slinfer -exp <id>`.
package slinfer

import (
	"fmt"
	"testing"

	"slinfer/internal/experiments"
)

func benchExp(b *testing.B, id string, metricCells ...[3]string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	res := e.Run(experiments.Quick)
	fmt.Println(res.String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = e.Run(experiments.Quick)
	}
	b.StopTimer()
	for _, mc := range metricCells {
		var row, col int
		fmt.Sscanf(mc[0], "%d", &row)
		fmt.Sscanf(mc[1], "%d", &col)
		if row < 0 {
			row += len(res.Rows)
		}
		b.ReportMetric(res.Metric(row, col), mc[2])
	}
}

func cell(row, col int, unit string) [3]string {
	return [3]string{fmt.Sprint(row), fmt.Sprint(col), unit}
}

// ---- Motivation (§III-IV) ----------------------------------------------------

func BenchmarkExp_Fig04(b *testing.B) {
	benchExp(b, "fig04", cell(0, 1, "slo_rate_16"), cell(-1, 1, "slo_rate_max"))
}
func BenchmarkExp_Fig05(b *testing.B) { benchExp(b, "fig05", cell(-1, 1, "mean_util_pct")) }
func BenchmarkExp_Fig06(b *testing.B) { benchExp(b, "fig06", cell(3, 2, "c7b_ttft1k_ms")) }
func BenchmarkExp_Fig07(b *testing.B) { benchExp(b, "fig07", cell(0, 2, "c7b_tpot1bs1k_ms")) }
func BenchmarkExp_Fig08(b *testing.B) { benchExp(b, "fig08", cell(5, 3, "c13b_tpot32bs2k_ms")) }
func BenchmarkExp_Fig09(b *testing.B) { benchExp(b, "fig09", cell(0, 4, "p99_7b_peak_gb")) }
func BenchmarkExp_Fig10(b *testing.B) { benchExp(b, "fig10", cell(-1, 2, "cpu_cores_bs64")) }
func BenchmarkExp_Fig11(b *testing.B) { benchExp(b, "fig11", cell(-1, 2, "slowdown_64procs")) }
func BenchmarkExp_Fig12(b *testing.B) { benchExp(b, "fig12", cell(0, 3, "top1pct_max_conc")) }
func BenchmarkExp_Tab01(b *testing.B) { benchExp(b, "tab01", cell(1, 2, "gen4_ttft1k_ms")) }
func BenchmarkExp_Tab02(b *testing.B) { benchExp(b, "tab02", cell(0, 4, "c7b2k_full_limit")) }
func BenchmarkExp_Fig21(b *testing.B) { benchExp(b, "fig21", cell(2, 2, "rpm_128models")) }
func BenchmarkExp_Fig28(b *testing.B) { benchExp(b, "fig28", cell(-1, 1, "cores_8coloc")) }
func BenchmarkExp_Fig34(b *testing.B) { benchExp(b, "fig34", cell(4, 1, "longbench_inP50")) }

// ---- End-to-end (§IX-B..G) -----------------------------------------------------

func BenchmarkExp_Fig22a(b *testing.B) { benchExp(b, "fig22a", cell(3, 4, "slinfer_slo_32")) }
func BenchmarkExp_Fig22b(b *testing.B) { benchExp(b, "fig22b", cell(3, 4, "slinfer_slo_32")) }
func BenchmarkExp_Fig22c(b *testing.B) { benchExp(b, "fig22c", cell(3, 4, "slinfer_slo_32")) }
func BenchmarkExp_Fig23(b *testing.B)  { benchExp(b, "fig23", cell(0, 1, "full_slo")) }
func BenchmarkExp_Fig24(b *testing.B)  { benchExp(b, "fig24", cell(0, 2, "base_met")) }
func BenchmarkExp_Fig25(b *testing.B) {
	benchExp(b, "fig25", cell(2, 5, "slinfer_avg_batch"), cell(0, 5, "sllm_avg_batch"))
}
func BenchmarkExp_Fig26(b *testing.B) { benchExp(b, "fig26", cell(2, 2, "slinfer_gpus_4111")) }
func BenchmarkExp_Tab03(b *testing.B) { benchExp(b, "tab03", cell(1, 4, "slinfer_slo_agg")) }

// ---- Sensitivity (§IX-H..I, §X) -------------------------------------------------

func BenchmarkExp_Fig27(b *testing.B) { benchExp(b, "fig27", cell(1, 4, "slinfer_viol_low")) }
func BenchmarkExp_Fig29(b *testing.B) { benchExp(b, "fig29", cell(-1, 3, "slinfer_miss_32c")) }
func BenchmarkExp_Fig30(b *testing.B) { benchExp(b, "fig30", cell(1, 3, "slinfer_ttft_p95")) }
func BenchmarkExp_Fig31(b *testing.B) {
	benchExp(b, "fig31", cell(0, 2, "w0_overhead_pct"), cell(1, 2, "w25_overhead_pct"))
}
func BenchmarkExp_Fig32(b *testing.B) { benchExp(b, "fig32", cell(1, 2, "slinfer_met_1n")) }
func BenchmarkExp_Fig33(b *testing.B) {
	benchExp(b, "fig33", cell(-1, 1, "validation_us"), cell(-1, 2, "pick_us"))
}
func BenchmarkExp_Fig35(b *testing.B) { benchExp(b, "fig35", cell(1, 3, "slinfer_gpu_nodes")) }
func BenchmarkExp_Quant(b *testing.B) {
	benchExp(b, "quant", cell(0, 1, "fp16_gpus"), cell(1, 1, "int4_gpus"))
}

// ---- Design ablations (DESIGN.md §5) --------------------------------------------

func BenchmarkAblation_FIFO(b *testing.B) {
	benchExp(b, "abl-fifo", cell(0, 1, "headroom_slo"), cell(1, 1, "fifo_slo"))
}
func BenchmarkAblation_Margin(b *testing.B) {
	benchExp(b, "abl-margin", cell(0, 1, "margin1.0_slo"), cell(-1, 1, "margin_max_slo"))
}
