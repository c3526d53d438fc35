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
func (p *BinPack) Share(m model.Model, class hwsim.DeviceClass) float64 {
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
func (p *BinPack) HasSlot(h Host, n *cluster.Node, share float64) bool {
	switch p.Mode {
	case Elastic:
		return true // admission is gated by validation and memory instead
	default:
		return h.SlotUsed(n.Idx)+share <= 1.0001
	}
}

// AdmitScaleOut applies the mode's colocation gate for a fresh instance:
// elastic scale-out shares the node with whoever is already there, so it
// must pass the same shadow validation as a scale-up (§VI-C).
func (p *BinPack) AdmitScaleOut(h Host, n *cluster.Node, m model.Model, share float64, req *engine.Request) bool {
	if p.Mode != Elastic || !p.ShadowValidation {
		return true
	}
	ex := h.SharedExecutor(n.Idx)
	prof := h.Profile(n.Spec.Class, m, share*orOne(n.SpeedFactor))
	return h.ValidateScaleOut(ex, prof, req, n.Spec.LoadTime(&m))
}

// placeCands is how many scale-out candidates PlaceNew keeps on the stack;
// a larger cluster spills its candidate list to the heap.
const placeCands = 16

// PlaceNew scales out: places a fresh instance for the request via
// best-fit bin-packing, CPU first (§V).
func (p *BinPack) PlaceNew(h Host, req *engine.Request, m model.Model) bool {
	if m.TPDegree > 1 {
		return p.placeNewTP(h, req, m)
	}
	// NodeScore.NodeIdx is the cluster index, so candidates map back to
	// their node via h.Nodes() — no side table needed. PlaceNew must stay
	// stateless (one BinPack is shared across concurrently advancing fleet
	// shards), so the candidate list is a local array, not policy scratch.
	// Every node that cannot become a candidate is dropped before the sort:
	// SortPlace is stable and totally ordered, so the survivors keep the
	// order they would have had.
	//
	// A node is dropped first on two checks that need no per-request work:
	// its free memory cannot hold the model's weights, which every
	// non-negative creation size includes (the Host.CreationBytes floor),
	// or its shared executor already fails the case-3 aggregate check that
	// AdmitScaleOut's validation runs first. Only the survivors pay for the
	// SLO gate, the slot and the creation size. The gate, the fixed limit
	// and the creation size depend on a node only through its shape, so
	// they are worked out once per shape and reused for every node of that
	// shape; the slot and the free memory are read per node.
	nodes := h.Nodes()
	floor := m.WeightBytes() + hwsim.ActivationReserve
	validated := p.Mode == Elastic && p.ShadowValidation
	var buf [placeCands]consolidator.NodeScore
	cands := buf[:0]
	var memo shapeMemo
	for _, n := range nodes {
		kindCPU := n.Kind() == hwsim.CPU
		if kindCPU && !p.UseCPU {
			continue
		}
		free := n.Mem.OptimisticFree()
		if free < floor || validated && overBudget(h, n, req) {
			if compute.FullRun {
				p.checkDropped(h, n, m, req, floor)
			}
			continue
		}
		sv := memo.lookup(n, p.Share(m, n.Spec.Class))
		if !sv.gated {
			sv.gated, sv.barred = true, p.barred(h, n, m, sv.share, req)
		}
		if sv.barred || !p.HasSlot(h, n, sv.share) {
			continue
		}
		if !sv.sized {
			sv.sized, sv.need = true, h.CreationBytes(m, n, sv.share, req)
		}
		if sv.need < 0 || free < sv.need {
			continue
		}
		cands = append(cands, consolidator.NodeScore{
			NodeIdx: n.Idx, FreeBytes: free, IsCPU: kindCPU,
		})
	}
	consolidator.SortPlace(cands, p.CPUFirst)
	for _, cand := range cands {
		n := nodes[cand.NodeIdx]
		share := p.Share(m, n.Spec.Class)
		if !p.AdmitScaleOut(h, n, m, share, req) {
			continue
		}
		if h.Spawn(m, []*cluster.Node{n}, share, req) {
			return true
		}
	}
	return false
}

// overBudget reports whether n's shared executor already fails the case-3
// aggregate-decode check at req's TPOT: ValidateScaleOut would reject the
// node on that check before anything else, and nothing PlaceNew does
// before reaching the node changes the executor (a failed Spawn returns
// before carving one). It reads only an executor already wired, because
// Host.SharedExecutor wires one on demand and a wiring renames every later
// executor's noise stream; an unwired executor holds no instances to reject
// on. Under Elastic sharing CarveExecutor carves nothing but the shared
// executor, so a wired one is the node's only executor.
func overBudget(h Host, n *cluster.Node, req *engine.Request) bool {
	if len(n.Executors) != 1 {
		return false
	}
	return h.Validator().RejectsAggregate(n.Executors[0].Instances, req.Obj.TPOT)
}

// checkDropped is the slinfer_fullrun oracle for PlaceNew's prefilter. It
// runs a dropped node through the order the prefilter skips (the SLO gate,
// the slot, the creation size against free memory, then AdmitScaleOut) and
// panics unless that order rejects the node too. A node below the weight
// floor must already fail at memory, since validating it could wire its
// executor. The validator's counters are restored, so the oracle moves no
// output.
func (p *BinPack) checkDropped(h Host, n *cluster.Node, m model.Model, req *engine.Request, floor int64) {
	share := p.Share(m, n.Spec.Class)
	if p.barred(h, n, m, share, req) || !p.HasSlot(h, n, share) {
		return
	}
	free := n.Mem.OptimisticFree()
	if need := h.CreationBytes(m, n, share, req); need < 0 || free < need {
		return
	}
	if free < floor {
		panic("policy: a creation size below the weight floor fits a node PlaceNew dropped")
	}
	v := h.Validator()
	vals, rejs, early := v.Validations, v.Rejections, v.EarlyAccepts
	admitted := p.AdmitScaleOut(h, n, m, share, req)
	v.Validations, v.Rejections, v.EarlyAccepts = vals, rejs, early
	if admitted {
		panic("policy: PlaceNew dropped a node whose scale-out validation passes")
	}
}

// barred reports whether a node of n's shape may never host the new
// instance of m for req. SLINFER excludes CPUs without matrix acceleration
// and CPUs that cannot meet this request's SLO (§V) at their derated speed,
// the profile the instance would run on. Baselines use the fixed-limit
// table (0 disables a class entirely).
func (p *BinPack) barred(h Host, n *cluster.Node, m model.Model, share float64, req *engine.Request) bool {
	class := n.Spec.Class
	if p.ShadowValidation && class.Kind() == hwsim.CPU {
		prof := h.Profile(class, m, share*orOne(n.SpeedFactor))
		if !prof.CanMeet(req.W.InputLen, req.Obj) {
			return true
		}
	}
	lim, ok := h.FixedLimit(m, class, share)
	return ok && lim <= 0
}

// shapeVerdict is what PlaceNew has worked out for one node shape: the
// device class, serving memory and speed factor, and the share an instance
// gets there. gated and sized mark barred and need as computed.
type shapeVerdict struct {
	class         hwsim.DeviceClass
	mem           int64
	speed, share  float64
	gated, barred bool
	sized         bool
	need          int64
}

// shapeMemo holds the verdicts of one PlaceNew call, on the stack. Paper
// clusters have one or two shapes; a node whose shape finds the memo full
// gets a fresh verdict of its own.
type shapeMemo struct {
	n      int
	shapes [4]shapeVerdict
	spill  shapeVerdict
}

// lookup returns the verdict for n's shape at share, empty on first sight.
func (sm *shapeMemo) lookup(n *cluster.Node, share float64) *shapeVerdict {
	key := shapeVerdict{class: n.Spec.Class, mem: n.Spec.MemBytes, speed: n.SpeedFactor, share: share}
	for i := range sm.shapes[:sm.n] {
		sv := &sm.shapes[i]
		if sv.class == key.class && sv.mem == key.mem && sv.speed == key.speed && sv.share == key.share {
			return sv
		}
	}
	sv := &sm.spill
	if sm.n < len(sm.shapes) {
		sv = &sm.shapes[sm.n]
		sm.n++
	}
	*sv = key
	return sv
}

// placeNewTP places a tensor-parallel model across free GPU nodes (§IX-E).
// Large models fall back to exclusive allocation (§X).
func (p *BinPack) placeNewTP(h Host, req *engine.Request, m model.Model) bool {
	var free []*cluster.Node
	for _, n := range h.NodesOfKind(hwsim.GPU) {
		if !n.Occupied() && p.HasSlot(h, n, 1) {
			free = append(free, n)
		}
	}
	if len(free) < m.TPDegree {
		return false
	}
	return h.Spawn(m, free[:m.TPDegree], 1, req)
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
		h.AddSlot(n.Idx, share)
	}
	return ex
}

// ReleaseExecutor undoes CarveExecutor: dedicated partitions are detached
// from their node and their slots refunded; shared executors persist.
func (p *BinPack) ReleaseExecutor(h Host, inst *engine.Instance, ex *cluster.Executor) {
	if p.Mode == Elastic {
		return
	}
	ex.Node.RemoveExecutor(ex)
	for _, idx := range inst.NodeIdxs {
		h.AddSlot(idx, -inst.Share)
	}
}
