package core_test

import (
	"slices"
	"testing"

	"slinfer/internal/baseline"
	"slinfer/internal/core"
	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/invariants"
	"slinfer/internal/model"
	"slinfer/internal/sim"
	"slinfer/internal/workload"
)

// TestAppendLiveMatchesSuite is the oracle for Controller.AppendLive: the
// invariant suite tracks the live set independently, from the lifecycle
// stream alone (submitted, minus completed, minus dropped), so at every
// step of a run the controller's live request IDs must equal the suite's.
// The three shapes cover the paths a request can be live on: sllm's
// exclusive queue-and-drop, SLINFER on a saturated 1+1 testbed where
// preemption and §VII-D eviction migrate requests between instances, and
// PD disaggregation, where a prefilled request belongs to no instance
// while its KV is in transit.
func TestAppendLiveMatchesSuite(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      core.Config
		cpu, gpu int
		n        int
		rpm      float64
	}{
		{"sllm", core.Sllm(), 2, 2, 16, 0},
		{"saturated", core.SLINFER(), 1, 1, 24, 360},
		{"pd", baseline.Disaggregated(core.SLINFER()), 2, 2, 16, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			models := model.Replicas(model.Llama2_7B, tc.n)
			names := make([]string, len(models))
			for i, m := range models {
				names[i] = m.Name
			}
			tr := workload.Generate(workload.TraceConfig{
				ModelNames: names, Duration: 5 * sim.Minute, Seed: 7,
				Dataset: workload.AzureConv, AggregateRPM: tc.rpm,
			})
			s := sim.New()
			c := core.New(s, hwsim.Testbed(tc.cpu, tc.gpu), models, tc.cfg)
			suite := invariants.Attach(c)
			traceEnd := sim.Time(0).Add(tr.Duration)
			c.BeginStream(traceEnd, len(tr.Requests))
			submit := func(r any) { c.Submit(*r.(*workload.Request)) }
			for i := range tr.Requests {
				s.AtFunc(tr.Requests[i].Arrival, submit, &tr.Requests[i])
			}

			var live []*engine.Request
			var got, want []int64
			var steps, peak, inTransit int
			end := traceEnd.Add(core.DrainGrace)
			for now := sim.Time(0); now <= end; now = now.Add(sim.Second / 4) {
				s.RunUntil(now)
				live = c.AppendLive(live[:0])
				got = got[:0]
				for _, r := range live {
					got = append(got, r.W.ID)
					if r.State == engine.Transferring {
						inTransit++
					}
				}
				slices.Sort(got)
				want = suite.AppendLiveIDs(want[:0])
				if !slices.Equal(got, want) {
					t.Fatalf("at %v: controller live IDs %v, invariant suite %v", now, got, want)
				}
				steps++
				peak = max(peak, len(got))
			}
			rep := c.EndStream(sim.Duration(end))
			if err := suite.Err(); err != nil {
				t.Fatal(err)
			}
			if peak == 0 {
				t.Fatalf("no request was ever live across %d steps", steps)
			}
			switch tc.name {
			case "saturated":
				if rep.Preemptions == 0 || rep.Migrations == 0 {
					t.Fatalf("saturated shape never migrated: preempt=%d migr=%d", rep.Preemptions, rep.Migrations)
				}
			case "pd":
				if inTransit == 0 {
					t.Fatal("PD shape never caught a request with KV in transit")
				}
			}
		})
	}
}
