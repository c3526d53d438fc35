package core

import (
	"slices"
	"testing"

	"slinfer/internal/compute"

	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/sim"
	"slinfer/internal/workload"
)

// saturated drives a 1+1 SLINFER controller through the saturated golden
// shape (24 7B models at 6 rps) up to until, leaving requests queued, and
// returns it with a fresh request for the first model.
func saturated(t *testing.T, until sim.Time) (*Controller, *engine.Request) {
	t.Helper()
	models, tr := goldenShape(24, 360)
	s := sim.New()
	c := New(s, hwsim.Testbed(1, 1), models, SLINFER())
	c.BeginStream(sim.Time(0).Add(tr.Duration), len(tr.Requests))
	for _, w := range tr.Requests {
		if w.Arrival > until {
			break
		}
		s.RunUntil(w.Arrival)
		c.Submit(w)
	}
	if c.PendingCount() == 0 {
		t.Fatal("precondition: the controller should be queueing")
	}
	req := engine.NewRequest(workload.Request{ID: -1, ModelName: models[0].Name,
		Arrival: s.Now(), InputLen: 1024, OutputLen: 200})
	return c, req
}

// The scale-out probe a queued request repeats on every completion must not
// allocate when it finds no node: the candidate list stays on the stack and
// the shadow validation it runs reuses the validator's scratch.
func TestScaleOutProbeDoesNotAllocate(t *testing.T) {
	c, req := saturated(t, 60)
	m := c.lookup(req.W.ModelName).m
	if c.Cfg.Placement.PlaceNew(c.host, req, m) {
		t.Fatal("precondition: a saturated 1+1 testbed should have no node for a new instance")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if c.Cfg.Placement.PlaceNew(c.host, req, m) {
			t.Fatal("scale-out placed on unchanged state")
		}
	})
	if allocs != 0 {
		t.Errorf("a failed scale-out probe allocates %.1f times", allocs)
	}
}

// On a saturated controller, validateOnExecutor and validateNewInstanceOn
// must decide every attempt as a full Validate over the same views does,
// with the live case-3 pre-check rejecting exactly the attempts that
// Validate rejects as AggregateDecode, and move the counters identically.
func TestAggregatePreCheckMatchesValidate(t *testing.T) {
	c, req := saturated(t, 60)
	m := c.lookup(req.W.ModelName).m
	tpot := req.Obj.TPOT
	seen := map[compute.Reason]int{}
	for _, until := range []sim.Time{60, 90, 120} {
		c.Sim.RunUntil(until)
		for _, ex := range c.elasticExecs {
			prof := c.Registry.Get(ex.Node.Spec.Class, m, 1)
			for _, cand := range append(slices.Clone(ex.Instances), nil) {
				rv := compute.ViewRequest(req)
				views, rbuf, candIdx := c.executorViews(ex, cand, 0)
				if cand == nil {
					rv.Deadline = rv.Deadline.Add(sim.Second)
					candIdx = len(views)
					views = append(views, compute.InstView{Profile: prof, BlockedUntil: c.Sim.Now().Add(sim.Second)})
				}
				ref := &compute.Validator{Overestimate: c.Cfg.Overestimate, DecodeRounds: 3, MaxSteps: 600}
				want := ref.Validate(c.Sim.Now(), c.busyUntil(ex), views, candIdx, rv, tpot)
				c.endViews(views, rbuf)
				seen[want]++

				pre := &compute.Validator{Overestimate: c.Cfg.Overestimate}
				if got := pre.RejectsAggregate(ex.Instances, tpot); got != (want == compute.AggregateDecode) {
					t.Fatalf("pre-check rejected=%v, Validate=%v", got, want)
				}
				v0, r0 := c.Validator.Validations, c.Validator.Rejections
				var ok bool
				if cand == nil {
					ok = c.validateNewInstanceOn(ex, prof, req, sim.Second)
				} else {
					ok = c.validateOnExecutor(ex, cand, rv, tpot, 0)
				}
				if ok != (want == compute.OK) {
					t.Fatalf("controller placed=%v, Validate=%v", ok, want)
				}
				if dv, dr := c.Validator.Validations-v0, c.Validator.Rejections-r0; dv != ref.Validations || dr != ref.Rejections {
					t.Fatalf("controller counted %d/%d, Validate %d/%d", dv, dr, ref.Validations, ref.Rejections)
				}
			}
		}
	}
	if seen[compute.AggregateDecode] == 0 || len(seen) < 2 {
		t.Fatalf("outcomes %v: want aggregate-decode rejections and some other outcome", seen)
	}
}
