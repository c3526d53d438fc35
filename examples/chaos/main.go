// Chaos: deterministic fault injection across a fleet. A four-shard fleet
// serves a bursty workload while a hand-written fault plan crashes one
// shard mid-run (its in-flight requests are pulled and re-driven under a
// retry budget), straggles another at 3x latency, and degrades nothing
// else — then a seeded preset ("rolling-restart") drains, crashes, and
// recovers every shard in a staggered maintenance wave. Both runs are pure
// functions of (config, trace, plan): replaying the same plan is
// byte-identical, and the extended conservation invariant (offered ==
// completed + rejected + retry-exhausted, no request lost or duplicated
// across a crash) is checked throughout: the program exits 1 if either
// run reports an invariant violation.
package main

import (
	"fmt"
	"os"

	"slinfer"
)

func main() {
	models := slinfer.Replicas(slinfer.Llama2_7B, 12)
	trace := slinfer.BurstGPTTrace(models, 4, 3.0, 11) // 4 min @ ~3 rps

	// An explicit plan: events on the run's virtual timeline (seconds).
	// Shard 1 dies at t=60s and returns cold at t=150s; shard 2 runs 3x
	// slow through the middle two minutes.
	plan := &slinfer.FaultPlan{Events: []slinfer.FaultEvent{
		{At: 60, Kind: slinfer.FaultShardCrash, Shard: 1},
		{At: 150, Kind: slinfer.FaultShardRecover, Shard: 1},
		{At: 60, Kind: slinfer.FaultSlowdown, Shard: 2, Factor: 3, Duration: trace.Duration / 2},
	}}

	cfg := slinfer.FleetConfig{
		System:           slinfer.SLINFER(),
		Shards:           slinfer.UniformFleet(4, 1, 3),
		Models:           models,
		Routing:          slinfer.LeastOutstandingRouting(),
		Seed:             11,
		AttachInvariants: true,
		Faults:           plan,
		Retry:            slinfer.BudgetedRetryPolicy(2, 1),
	}
	res := slinfer.RunFleet(cfg, trace)

	fmt.Printf("chaos: offered=%d accepted=%d rejected=%d\n",
		res.Offered, res.Accepted, len(res.Rejections))
	fmt.Printf("faults: events=%d redriven=%d retry-exhausted=%d\n",
		res.Report.FaultEvents, res.Redriven, res.RetryExhausted)
	fmt.Printf("recovery: goodput dip=%.2f, recovered in %d epochs\n",
		res.Report.GoodputDip, res.Report.RecoverEpochs)
	for i, rep := range res.Shards {
		fmt.Printf("  shard %d %-16s total=%-4d completed=%-4d slo=%.3f cold=%d\n",
			i, rep.System, rep.Total, rep.Completed, rep.SLORate, rep.ColdStarts)
	}
	for _, rj := range res.Rejections {
		fmt.Printf("  ledger: request %d at %v: %s\n", rj.ID, rj.At, rj.Reason)
	}
	exitOnViolations(res)

	// Seeded presets cover the common shapes without hand-writing events;
	// same seed, same plan, same bytes.
	preset, err := slinfer.FaultPreset("rolling-restart", 4, trace.Duration, 11)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg.Faults = preset
	roll := slinfer.RunFleet(cfg, trace)
	fmt.Printf("rolling-restart: events=%d redriven=%d exhausted=%d ok=%v\n",
		roll.Report.FaultEvents, roll.Redriven, roll.RetryExhausted, roll.Ok())
	exitOnViolations(roll)

	// Plans serialize to JSONL for replay outside this process
	// (slinfer -faults plan.jsonl).
	if err := slinfer.SaveFaultPlan(os.Stdout, cfg.Faults); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// exitOnViolations prints a run's fleet and shard invariant violations and
// exits 1 if there are any.
func exitOnViolations(res slinfer.FleetResult) {
	if res.Ok() {
		return
	}
	fmt.Println("invariant violations detected:")
	for _, v := range res.Violations {
		fmt.Printf("  fleet: %s\n", v)
	}
	for i, vs := range res.ShardViolations {
		for _, v := range vs {
			fmt.Printf("  shard %d: %s\n", i, v)
		}
	}
	os.Exit(1)
}
