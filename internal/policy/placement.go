package policy

import (
	"slinfer/internal/cluster"
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
	return h.ValidateScaleOut(ex, prof, req, n.Spec.LoadTime(m))
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
	// Nodes whose free memory cannot hold the instance are dropped before
	// the sort: SortPlace is stable and totally ordered, so the survivors
	// keep the order they would have had.
	nodes := h.Nodes()
	var buf [placeCands]consolidator.NodeScore
	cands := buf[:0]
	for _, n := range nodes {
		class := n.Spec.Class
		share := p.Share(m, class)
		kindCPU := n.Kind() == hwsim.CPU
		if kindCPU {
			if !p.UseCPU {
				continue
			}
			// SLINFER excludes CPUs without matrix acceleration and CPUs
			// that cannot meet this request's SLO (§V) at their derated
			// speed, the profile the instance would run on. Baselines use
			// the fixed-limit table (0 disables a class entirely).
			if p.ShadowValidation {
				prof := h.Profile(class, m, share*orOne(n.SpeedFactor))
				if !prof.CanMeet(req.W.InputLen, req.Obj) {
					continue
				}
			}
		}
		if lim, ok := h.FixedLimit(m, class, share); ok && lim <= 0 {
			continue
		}
		if !p.HasSlot(h, n, share) {
			continue
		}
		need := h.CreationBytes(m, n, share, req)
		free := n.Mem.OptimisticFree()
		if need < 0 || free < need {
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
