package policy

import (
	"slinfer/internal/compute"
	"slinfer/internal/consolidator"
	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/model"
	"slinfer/internal/perfmodel"
)

// NoPreemption never preempts (the sllm-family baselines and the
// w/o-Consolidation ablation).
type NoPreemption struct{}

// TryPreempt always reports failure.
func (NoPreemption) TryPreempt(Host, *engine.Request, model.Model) bool { return false }

// SLOPreserving is the paper's proactive consolidation (§VIII-A): find a
// GPU node where an existing instance of the request's model could absorb
// it if a smaller neighbour were preempted, dry-run every displaced
// request and then the grower through shadow validation, and execute only
// when all SLOs survive the move.
type SLOPreserving struct{}

// TryPreempt looks for a grower/victim pair, validates the move, and
// executes it.
func (p SLOPreserving) TryPreempt(h Host, req *engine.Request, m model.Model) bool {
	s := h.Scratch()
	s.Growers = h.AppendRouteCandidates(s.Growers[:0], m)
	for _, grower := range s.Growers {
		if grower.State != engine.Active {
			continue
		}
		// Batch consolidation pays off on GPUs, where larger batches
		// amortize the memory-bound weight reads; on compute-bound CPUs
		// the aggregate-decode budget caps the gain below the re-prefill
		// cost of the preempted requests.
		if grower.Class.Kind() == hwsim.CPU {
			continue
		}
		ex := h.ExecutorOf(grower)
		if ex == nil || len(ex.Instances) < 2 {
			continue
		}
		s.Victims = consolidator.AppendPreemptionVictims(s.Victims[:0], grower, ex.Instances)
		for _, victim := range s.Victims {
			if p.preemptAndAdmit(h, s, req, grower, victim) {
				return true
			}
		}
	}
	return false
}

// preemptAndAdmit tears the victim down, reschedules its requests, and
// admits req to the grower. Preemption only proceeds when the grower can
// actually take the request afterwards.
//
// The dry runs are pure, so they run cheapest-and-most-likely-to-fail
// first. §VIII-A allows preemption only when shadow validation shows the
// preempted requests still meet their SLOs after rescheduling; rehoming
// does not depend on req and usually fails outright (no other live
// instance), so every victim request is dry-run before the grower's
// whole-executor projection. The dry runs change nothing the route
// depends on, so the victim's model is routed once for all of them.
func (p SLOPreserving) preemptAndAdmit(h Host, s *Scratch, req *engine.Request, grower, victim *engine.Instance) bool {
	s.Rehome = h.AppendRouteCandidates(s.Rehome[:0], victim.Model)
	for _, r := range victim.Running {
		if !p.canRehome(h, s.Rehome, r, victim, grower) {
			return false
		}
	}
	for _, r := range victim.WaitingPrefill {
		if !p.canRehome(h, s.Rehome, r, victim, grower) {
			return false
		}
	}
	// Without the victim, would the grower's executor pass shadow
	// validation?
	ex := h.ExecutorOf(grower)
	busyUntil := h.Now()
	if ex.Busy() {
		busyUntil = ex.BusyUntil()
	}
	if h.Validator().ValidateWithout(h.Now(), busyUntil, ex.Instances, victim, grower,
		compute.ViewRequest(req), req.Obj.TPOT) != compute.OK {
		return false
	}
	// Execute: migrate the victim's requests away, then reclaim it.
	s.Moved = append(append(s.Moved[:0], victim.Running...), victim.WaitingPrefill...)
	h.RecordPreemption()
	for _, r := range s.Moved {
		h.Migrate(r, victim)
	}
	// Reclaim handles idle/resize guards; a victim with a resize in flight
	// retires once the operation lands.
	h.Reclaim(victim)
	// Now admit (memory freed by the victim may still be unloading; the
	// optimistic budget already reflects it).
	return h.Admit(req, grower)
}

// canRehome dry-runs whether a victim's request could be re-placed on
// another *existing* instance of its model, walking route (the victim
// model's route candidates), and still meet its SLO (re-prefilling its
// context). Fresh instances are deliberately excluded: rehoming a victim
// to a new replica would merely relocate the fragment the preemption was
// supposed to eliminate.
func (p SLOPreserving) canRehome(h Host, route []*engine.Instance, r *engine.Request, victim, grower *engine.Instance) bool {
	rv := compute.ViewRequest(r)
	for _, inst := range route {
		if inst == victim || inst == grower {
			continue
		}
		if inst.TotalLoad() >= perfmodel.MaxBatch {
			continue
		}
		if inst.Class.Kind() == hwsim.CPU && !inst.Profile.CanMeet(r.ContextTokens(), r.Obj) {
			continue
		}
		if ex := h.ExecutorOf(inst); ex != nil && h.ValidateOn(ex, inst, rv, r.Obj.TPOT, 0) {
			return true
		}
	}
	return false
}
