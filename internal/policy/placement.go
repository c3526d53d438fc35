package policy

import (
	"slinfer/internal/cluster"
	"slinfer/internal/compute"
	"slinfer/internal/consolidator"
	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/model"
)

// BinPack is the paper's scale-out placement (§V): best-fit bin-packing
// over feasible nodes, CPU-first when configured, with tensor-parallel
// models spanning free GPU pairs (§IX-E). The sharing mode decides how
// node compute is carved: whole nodes (Exclusive), fixed partitions
// (Static), or a per-node shared executor gated by shadow validation
// (Elastic).
type BinPack struct {
	// Mode is the compute-sharing mode.
	Mode SharingMode
	// StaticShare is the partition size under Static sharing (paper: 1/2).
	StaticShare float64
	// UseCPU enables CPU nodes for serving.
	UseCPU bool
	// CPUFirst prefers CPU placements when feasible (§V).
	CPUFirst bool
	// ShadowValidation gates CPU feasibility and elastic scale-out through
	// §VI-C dry runs.
	ShadowValidation bool
}

// Share returns the compute share a new instance of m receives.
func (p *BinPack) Share(m *model.Model, class hwsim.DeviceClass) float64 {
	switch p.Mode {
	case Static:
		// §IX-A: every instance gets half a node, except 13B on CPU.
		if class.Kind() == hwsim.CPU && m.SizeBillions() == 13 {
			return 1
		}
		return p.StaticShare
	default:
		return 1
	}
}

// HasSlot reports whether a node has compute share available.
func (p *BinPack) HasSlot(n *cluster.Node, share float64) bool {
	switch p.Mode {
	case Elastic:
		return true // admission is gated by validation and memory instead
	default:
		return n.Carved+share <= 1.0001
	}
}

// AdmitScaleOut applies the mode's colocation gate for a fresh instance:
// elastic scale-out shares the node with whoever is already there, so it
// must pass the same shadow validation as a scale-up (§VI-C).
func (p *BinPack) AdmitScaleOut(h Host, n *cluster.Node, m *model.Model, share float64, req *engine.Request) bool {
	if p.Mode != Elastic || !p.ShadowValidation {
		return true
	}
	ex := h.SharedExecutor(n.Idx)
	prof := h.Profile(n.Spec.Class, req, share*n.SpeedFactor)
	return h.ValidateScaleOut(ex, prof, req, n.Spec.LoadTime(m))
}

// Feasible is the one per-node scale-out filter (§V): PlaceNew's candidate
// loop and the controller's PD decode placement both call it before
// AdmitScaleOut. A node passes when it is a GPU or CPUs are in use, clears
// the request-independent prefilter, is not barred (the derated CPU SLO
// gate and the fixed-limit bar), has a slot, and has the free memory for
// the creation size.
//
// The prefilter drops a node on two facts that need no per-request work:
// its free memory cannot hold the model's weights, which every
// non-negative creation size includes (the Host.CreationBytes floor), or
// its shared executor already fails the case-3 aggregate check that
// AdmitScaleOut's validation runs first. Only the survivors pay for the
// SLO gate, the slot and the creation size.
func (p *BinPack) Feasible(h Host, n *cluster.Node, m *model.Model, req *engine.Request) (share float64, ok bool) {
	if n.Kind() == hwsim.CPU && !p.UseCPU {
		return 0, false
	}
	free := n.Mem.OptimisticFree()
	if floor := m.WeightBytes() + hwsim.ActivationReserve; free < floor ||
		p.Mode == Elastic && p.ShadowValidation && overBudget(h, n, req) {
		if compute.FullRun {
			p.checkDropped(h, n, m, req, floor)
		}
		return 0, false
	}
	share = p.Share(m, n.Spec.Class)
	if p.barred(h, n, share, req) || !p.HasSlot(n, share) {
		return 0, false
	}
	if need := h.CreationBytes(n, share, req); need < 0 || free < need {
		return 0, false
	}
	return share, true
}

// placeCands is how many scale-out candidates PlaceNew keeps on the stack;
// a larger cluster spills its candidate list to the heap.
const placeCands = 16

// PlaceNew scales out: places a fresh instance for the request via
// best-fit bin-packing over the Feasible nodes, CPU first (§V).
func (p *BinPack) PlaceNew(h Host, req *engine.Request, m model.Model) bool {
	if m.TPDegree > 1 {
		return p.placeNewTP(h, req, m.TPDegree)
	}
	// NodeScore.NodeIdx is the cluster index, so candidates map back to
	// their node via h.Nodes() — no side table needed. PlaceNew must stay
	// stateless (one BinPack is shared across concurrently advancing fleet
	// shards), so the candidate list is a local array, not policy scratch.
	// Every node that cannot become a candidate is dropped before the sort:
	// SortPlace is stable and totally ordered, so the survivors keep the
	// order they would have had.
	nodes := h.Nodes()
	var buf [placeCands]consolidator.NodeScore
	cands := buf[:0]
	for _, n := range nodes {
		if _, ok := p.Feasible(h, n, &m, req); ok {
			cands = append(cands, consolidator.NodeScore{
				NodeIdx: n.Idx, FreeBytes: n.Mem.OptimisticFree(), IsCPU: n.Kind() == hwsim.CPU,
			})
		}
	}
	consolidator.SortPlace(cands, p.CPUFirst)
	for _, cand := range cands {
		n := nodes[cand.NodeIdx]
		share := p.Share(&m, n.Spec.Class)
		if !p.AdmitScaleOut(h, n, &m, share, req) {
			continue
		}
		if h.Spawn([]*cluster.Node{n}, share, req) {
			return true
		}
	}
	return false
}

// overBudget reports whether n's shared executor already fails the case-3
// aggregate-decode check at req's TPOT: ValidateScaleOut would reject the
// node on that check before anything else, and nothing a scale-out path
// does between Feasible and AdmitScaleOut changes the executor (a failed
// Spawn returns before carving one). It reads only an executor already
// wired, because Host.SharedExecutor wires one on demand and a wiring
// renames every later executor's noise stream; an unwired executor holds
// no instances to reject on.
func overBudget(h Host, n *cluster.Node, req *engine.Request) bool {
	if n.Shared == nil {
		return false
	}
	return h.Validator().RejectsAggregate(n.Shared.Instances, req.Obj.TPOT)
}

// checkDropped is the slinfer_fullrun oracle for Feasible's prefilter. It
// runs a dropped node through the order the prefilter skips (the SLO gate,
// the slot, the creation size against free memory, then AdmitScaleOut) and
// panics unless that order rejects the node too. A node below the weight
// floor must already fail at memory, since validating it could wire its
// executor. The validator's counters are restored, so the oracle moves no
// output.
func (p *BinPack) checkDropped(h Host, n *cluster.Node, m *model.Model, req *engine.Request, floor int64) {
	share := p.Share(m, n.Spec.Class)
	if p.barred(h, n, share, req) || !p.HasSlot(n, share) {
		return
	}
	free := n.Mem.OptimisticFree()
	if need := h.CreationBytes(n, share, req); need < 0 || free < need {
		return
	}
	if free < floor {
		panic("policy: a creation size below the weight floor fits a node Feasible dropped")
	}
	v := h.Validator()
	vals, rejs, early := v.Validations, v.Rejections, v.EarlyAccepts
	admitted := p.AdmitScaleOut(h, n, m, share, req)
	v.Validations, v.Rejections, v.EarlyAccepts = vals, rejs, early
	if admitted {
		panic("policy: Feasible dropped a node whose scale-out validation passes")
	}
}

// barred reports whether n may never host the new instance of req's model.
// SLINFER excludes CPUs without matrix acceleration and CPUs that cannot
// meet this request's SLO (§V) at their derated speed, the profile the
// instance would run on. Baselines use the fixed-limit table (0 disables a
// class entirely).
func (p *BinPack) barred(h Host, n *cluster.Node, share float64, req *engine.Request) bool {
	class := n.Spec.Class
	if p.ShadowValidation && class.Kind() == hwsim.CPU {
		prof := h.Profile(class, req, share*n.SpeedFactor)
		if !prof.CanMeet(req.W.InputLen, req.Obj) {
			return true
		}
	}
	lim, ok := h.FixedLimit(req, class, share)
	return ok && lim <= 0
}

// placeNewTP places req's tensor-parallel model across degree free GPU
// nodes (§IX-E). Large models fall back to exclusive allocation (§X).
func (p *BinPack) placeNewTP(h Host, req *engine.Request, degree int) bool {
	var free []*cluster.Node
	for _, n := range h.Nodes() {
		if n.Kind() == hwsim.GPU && !n.Occupied() && p.HasSlot(n, 1) {
			free = append(free, n)
		}
	}
	if len(free) < degree {
		return false
	}
	return h.Spawn(free[:degree], 1, req)
}

// CarveExecutor returns the node's shared executor under Elastic sharing;
// otherwise it carves a dedicated partition on the first node and charges
// the share against every host node's slot budget.
func (p *BinPack) CarveExecutor(h Host, nodes []*cluster.Node, share float64) *cluster.Executor {
	if p.Mode == Elastic {
		return h.SharedExecutor(nodes[0].Idx)
	}
	ex := nodes[0].NewExecutor(share)
	h.WireExecutor(ex)
	for _, n := range nodes {
		n.Carved += share
	}
	return ex
}

// ReleaseExecutor undoes CarveExecutor: dedicated partitions are detached
// from their node and their slots refunded (clamped at zero); shared
// executors persist.
func (p *BinPack) ReleaseExecutor(h Host, inst *engine.Instance, ex *cluster.Executor) {
	if p.Mode == Elastic {
		return
	}
	ex.Node.RemoveExecutor(ex)
	nodes := h.Nodes()
	for _, idx := range inst.NodeIdxs {
		n := nodes[idx]
		n.Carved = max(n.Carved-inst.Share, 0)
	}
}
