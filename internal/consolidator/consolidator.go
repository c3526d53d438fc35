// Package consolidator implements the decision logic of SLINFER's
// efficiency-oriented consolidation (§VIII): choosing preemption victims for
// proactive in-place scale-up (Figure 20b) and ordering instances and nodes
// for the reactive bin-packing that drains fragmented replicas (Figure 20c).
//
// The orchestration (moving requests, re-validating them) lives in the core
// controller; this package holds the pure, independently-testable policies.
package consolidator

import (
	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
)

// insertionSort keeps the package's orderings allocation-free: the candidate
// lists are a handful of entries, reflection-based sort.SliceStable costs one
// swapper allocation per call on the routing hot path, and insertion sort is
// stable, so every ordering below is unchanged.
func insertionSort[T any](s []T, less func(a, b T) bool) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// AppendPreemptionVictims appends to dst the neighbours of grower
// (instances colocated on the same executor) that may be preempted to make
// room, per §VIII-A: only instances with strictly smaller batch size than
// the grower, smallest first — so small fragments are sacrificed for large
// batches, never the other way around. Preemption pays a re-prefill for
// every victim request, so it is only worthwhile when the grower is
// meaningfully larger: the grower must hold at least twice the victim's
// load and at least two requests, which filters out the 1-for-1 ping-pong
// that degrades SLOs.
func AppendPreemptionVictims(dst []*engine.Instance, grower *engine.Instance, neighbours []*engine.Instance) []*engine.Instance {
	if grower.TotalLoad() < 2 {
		return dst
	}
	start := len(dst)
	for _, n := range neighbours {
		if n == grower || n.Model.Name == grower.Model.Name {
			continue
		}
		if n.State != engine.Active {
			continue
		}
		if n.Idle() || n.TotalLoad()*2 <= grower.TotalLoad() {
			dst = append(dst, n)
		}
	}
	insertionSort(dst[start:], func(a, b *engine.Instance) bool {
		if a.TotalLoad() != b.TotalLoad() {
			return a.TotalLoad() < b.TotalLoad()
		}
		return a.ID < b.ID
	})
	return dst
}

// SortRoute sorts same-model instances in place for reactive bin-packing
// (§VIII-B), without allocating: new requests go preferentially to the
// instance with the largest batch, so large instances grow (and gain
// preemption priority) while small fragments drain and get reclaimed.
func SortRoute(instances []*engine.Instance) {
	insertionSort(instances, routeLess)
}

// SortRouteByKind orders a model's instances in place for routing: CPU
// instances first when cpuFirst (§V), GPU instances first otherwise, then
// SortRoute's order within each kind.
func SortRouteByKind(instances []*engine.Instance, cpuFirst bool) {
	insertionSort(instances, func(a, b *engine.Instance) bool {
		if aCPU, bCPU := a.Class.Kind() == hwsim.CPU, b.Class.Kind() == hwsim.CPU; aCPU != bCPU {
			return aCPU == cpuFirst
		}
		return routeLess(a, b)
	})
}

// routeLess is the §VIII-B order: larger load first, then lower ID.
func routeLess(a, b *engine.Instance) bool {
	if a.TotalLoad() != b.TotalLoad() {
		return a.TotalLoad() > b.TotalLoad()
	}
	return a.ID < b.ID
}

// NodeScore is a candidate placement for a new instance.
type NodeScore struct {
	// NodeIdx is the cluster index of the node.
	NodeIdx int
	// FreeBytes is the node's optimistic free memory.
	FreeBytes int64
	// IsCPU marks CPU nodes (preferred by SLINFER's placement, §V).
	IsCPU bool
}

// SortPlace orders scale-out candidates in place, without allocating: CPU
// nodes first (when cpuFirst), then best fit by free memory — the tightest
// node, which keeps the packing dense and leaves big holes for future large
// instances — then node index. The order is total and the sort stable, so
// filtering candidates before or after sorting yields the same sequence.
func SortPlace(cands []NodeScore, cpuFirst bool) {
	insertionSort(cands, func(a, b NodeScore) bool {
		if cpuFirst && a.IsCPU != b.IsCPU {
			return a.IsCPU
		}
		if a.FreeBytes != b.FreeBytes {
			return a.FreeBytes < b.FreeBytes // best fit: tightest first
		}
		return a.NodeIdx < b.NodeIdx
	})
}
