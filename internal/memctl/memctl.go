// Package memctl implements SLINFER's hazard-aware memory subsystem
// (§VII-C): per-node orchestration of asynchronous memory operations
// (weight loads/unloads and KV-cache resizes) that combines an optimistic
// admission budget with pessimistic execution tracking and a reservation
// station, so that operations run in parallel — and out of order — without
// ever risking OOM (Figure 18/19).
//
// Accounting model. Every allocation (an instance's weights, an instance's
// KV cache) has a current physical size and possibly one in-flight
// operation moving it to a target size.
//
//   - The optimistic budget charges each allocation at its *target* size the
//     moment a demand is admitted: scale-downs free budget immediately (the
//     release will happen), scale-ups consume budget immediately (so later
//     demands cannot double-book).
//   - The pessimistic tracker charges each allocation at the *maximum* of
//     its current and target sizes: a scale-down still holds its old bytes
//     until the operation completes; a scale-up is assumed to touch its new
//     bytes the moment it starts executing.
//
// A scale-up may be admitted optimistically yet unsafe to execute right now
// (pessimistic would exceed capacity); it then waits in the reservation
// station and is re-evaluated whenever a completion frees pessimistic bytes.
// Since an operation only starts executing when pessimistic usage stays
// within capacity, physical usage can never exceed capacity.
package memctl

import (
	"fmt"

	"slinfer/internal/sim"
)

// OpKind labels a memory operation for observability.
type OpKind int

const (
	// LoadWeights brings model weights into node memory (cold start).
	LoadWeights OpKind = iota
	// UnloadWeights evicts model weights (keep-alive reclaim).
	UnloadWeights
	// ResizeKV grows or shrinks an instance's KV-cache allocation.
	ResizeKV
)

func (k OpKind) String() string {
	switch k {
	case LoadWeights:
		return "load-weights"
	case UnloadWeights:
		return "unload-weights"
	default:
		return "resize-kv"
	}
}

// Owner identifies one allocation, an instance's weights or its KV cache.
// It is comparable, so the invariant ledger keys its maps by it.
type Owner struct {
	Inst int
	KV   bool
}

// String renders the owner as "inst<ID>/weights" or "inst<ID>/kv".
func (o Owner) String() string {
	if o.KV {
		return fmt.Sprintf("inst%d/kv", o.Inst)
	}
	return fmt.Sprintf("inst%d/weights", o.Inst)
}

// Op is one asynchronous memory operation against a single allocation.
// Callers build it by value and hand it to Demand, which copies it into a
// slot the ledger owns until the op completes.
type Op struct {
	Kind OpKind
	// Owner identifies the allocation. One allocation must have at most
	// one in-flight op at a time; NodeMemory does not check it, the
	// invariant suite's ledger-conservation checker does.
	Owner Owner
	// From and To are the allocation's size before and after the op.
	From, To int64
	// Duration is how long the operation takes once it starts executing.
	Duration sim.Duration
	// Done, if set, runs with the op when it finishes. Like sim.AfterFunc's
	// fn it is bound once, not built per op: per-op state rides in Arg,
	// pointer-shaped so it allocates nothing. The slot is zeroed after Done.
	Done func(*Op)
	Arg  any

	nm *NodeMemory // set by Demand; completion trampoline target
}

// Observer receives every ledger transition of one NodeMemory, in program
// order, after the ledger's own accounting has been updated. The invariant
// suite reconstructs the optimistic/pessimistic counters independently from
// this stream and flags any divergence (conservation violations). Observers
// must not call back into the NodeMemory. A nil Observer costs one branch
// per transition.
type Observer interface {
	// OpAdmitted fires when Demand accepts an operation (it may still be
	// parked in the reservation station).
	OpAdmitted(nm *NodeMemory, op *Op)
	// OpStarted fires when an operation begins executing.
	OpStarted(nm *NodeMemory, op *Op)
	// OpCompleted fires when an operation finishes, before its Done
	// callback cascades.
	OpCompleted(nm *NodeMemory, op *Op)
	// OpRejected fires when the optimistic budget refuses a scale-up.
	OpRejected(nm *NodeMemory, op *Op)
}

// NodeMemory orchestrates the memory of one node (one device).
type NodeMemory struct {
	//slinfer:resetsafe bound to the shared simulator for the ledger's lifetime
	sim      *sim.Simulator
	name     string
	capacity int64

	// Observer, if set, watches every ledger transition (see Observer).
	Observer Observer

	optimistic  int64
	pessimistic int64

	station []*Op // reservation station: admitted scale-ups awaiting safety
	//slinfer:resetsafe drainStation ping-pong scratch, invariantly empty between drains
	spare []*Op // ping-pong buffer for drainStation rebuilds
	free  []*Op // op slots not in flight (see Demand)

	// drainStation reentrancy: a completion cascade that frees more bytes
	// while a drain is in progress requests another pass instead of nesting.
	draining bool
	redrain  bool
}

// New returns a NodeMemory with the given capacity.
func New(s *sim.Simulator, name string, capacity int64) *NodeMemory {
	nm := &NodeMemory{sim: s}
	nm.Reset(name, capacity)
	return nm
}

// Reset returns the NodeMemory to the state of a fresh New(s, name, capacity)
// while keeping the reservation-station storage and the op-slot free-list,
// so a long-lived worker reuses one ledger per node across runs. Any parked
// operations are discarded without accounting rollback (the whole ledger is
// being zeroed anyway); an Observer must not retain *Op handles across a
// Reset.
func (nm *NodeMemory) Reset(name string, capacity int64) {
	if capacity <= 0 {
		panic(fmt.Sprintf("memctl: non-positive capacity for %s", name))
	}
	nm.name, nm.capacity = name, capacity
	nm.Observer = nil
	nm.optimistic, nm.pessimistic = 0, 0
	for _, op := range nm.station {
		nm.recycle(op)
	}
	clear(nm.station)
	nm.station = nm.station[:0]
	nm.draining, nm.redrain = false, false
}

// recycle returns a finished or rejected op's slot to the free-list.
//
//slinfer:hotpath
func (nm *NodeMemory) recycle(op *Op) {
	*op = Op{} // drop Arg, so a reused slot pins nothing of a past run
	nm.free = append(nm.free, op)
}

// Capacity returns the node's memory capacity in bytes.
func (nm *NodeMemory) Capacity() int64 { return nm.capacity }

// Name returns the node label the ledger reports violations under.
func (nm *NodeMemory) Name() string { return nm.name }

// OptimisticUsed returns the admitted (target-size) usage.
func (nm *NodeMemory) OptimisticUsed() int64 { return nm.optimistic }

// OptimisticFree returns capacity minus admitted usage: what a shadow memory
// check may still admit (§V).
func (nm *NodeMemory) OptimisticFree() int64 { return nm.capacity - nm.optimistic }

// PessimisticUsed returns the execution-safety usage bound.
func (nm *NodeMemory) PessimisticUsed() int64 { return nm.pessimistic }

// StationDepth returns the number of operations waiting in the reservation
// station.
func (nm *NodeMemory) StationDepth() int { return len(nm.station) }

// CanAdmit reports whether a demand growing an allocation by delta bytes
// would pass the optimistic budget check.
func (nm *NodeMemory) CanAdmit(delta int64) bool {
	if delta <= 0 {
		return true
	}
	return nm.optimistic+delta <= nm.capacity
}

// Demand submits a memory operation (Figure 19). It returns false — and
// performs no accounting — when a scale-up exceeds the optimistic budget;
// the caller may retry with a compromised (smaller) size per §VII-D.
// Scale-downs are always admitted.
//
// The op is copied into a slot from the ledger's free-list, so a warm
// Demand stream allocates nothing, and the *Op every Observer callback
// sees stays valid until the op completes (a rejected op's slot goes back
// at once).
//
//slinfer:hotpath
func (nm *NodeMemory) Demand(o Op) bool {
	var op *Op
	if n := len(nm.free); n > 0 {
		op = nm.free[n-1]
		nm.free[n-1] = nil
		nm.free = nm.free[:n-1]
	} else {
		op = new(Op)
	}
	*op = o
	op.nm = nm
	delta := op.To - op.From
	if delta > 0 && nm.optimistic+delta > nm.capacity {
		if nm.Observer != nil {
			nm.Observer.OpRejected(nm, op)
		}
		nm.recycle(op)
		return false
	}
	nm.optimistic += delta
	if nm.Observer != nil {
		nm.Observer.OpAdmitted(nm, op)
	}
	if delta <= 0 {
		// Scale-down (or no-op): execute immediately. Pessimistic keeps
		// charging the old size until completion.
		nm.execute(op)
		return true
	}
	// Scale-up: execute only when pessimistically safe, else park it.
	if nm.pessimistic+delta <= nm.capacity {
		nm.execute(op)
	} else {
		nm.station = append(nm.station, op)
	}
	return true
}

// execute starts an operation: pessimistic charges the peak of (from, to)
// for its duration; physical moves at completion.
//
//slinfer:hotpath
func (nm *NodeMemory) execute(op *Op) {
	delta := op.To - op.From
	if delta > 0 {
		// Assume the new bytes are touched as soon as the op starts.
		nm.pessimistic += delta
	}
	if nm.Observer != nil {
		nm.Observer.OpStarted(nm, op)
	}
	if op.Duration <= 0 {
		nm.complete(op)
		return
	}
	// Pre-bound trampoline instead of a fresh closure per op: memory
	// operations are scheduled on the simulator's hot path.
	nm.sim.AfterFunc(op.Duration, opComplete, op)
}

// opComplete is the op-completion trampoline (a plain function value —
// scheduling it allocates nothing).
//
//slinfer:hotpath
func opComplete(a any) {
	op := a.(*Op)
	op.nm.complete(op)
}

// complete finishes an operation: pessimistic frees at completion for
// scale-downs, then Done cascades and the station drains. The op's
// slot returns to the free-list afterwards.
//
//slinfer:hotpath
func (nm *NodeMemory) complete(op *Op) {
	delta := op.To - op.From
	if delta < 0 {
		nm.pessimistic += delta // frees only now
	}
	if nm.Observer != nil {
		nm.Observer.OpCompleted(nm, op)
	}
	if op.Done != nil {
		op.Done(op)
	}
	if delta < 0 {
		nm.drainStation()
	}
	nm.recycle(op)
}

// drainStation re-evaluates parked scale-ups, launching — out of order —
// every operation that is now pessimistically safe.
//
// Launching a zero-duration op completes it inline, and its Done cascade
// may re-enter this method (another scale-down completed) or park new ops
// via Demand. Both are handled without allocation: the station is swapped
// into a scratch buffer before scanning, so reentrant Demand calls append to
// the live (rebuilding) station and are preserved, and a reentrant drain
// request just schedules another pass on the outer call instead of nesting.
//
//slinfer:hotpath
func (nm *NodeMemory) drainStation() {
	if nm.draining {
		nm.redrain = true
		return
	}
	nm.draining = true
	for {
		nm.redrain = false
		src := nm.station
		if len(nm.spare) != 0 {
			panic("memctl: drain scratch buffer in use")
		}
		nm.station, nm.spare = nm.spare[:0], src
		for _, op := range src {
			delta := op.To - op.From
			if nm.pessimistic+delta <= nm.capacity {
				nm.execute(op)
			} else {
				nm.station = append(nm.station, op)
			}
		}
		clear(src)
		nm.spare = src[:0]
		if !nm.redrain {
			break
		}
	}
	nm.draining = false
}

// CheckInvariants verifies the safety conditions; tests call it after every
// step. It returns an error describing the first violation.
func (nm *NodeMemory) CheckInvariants() error {
	if nm.pessimistic > nm.capacity {
		return fmt.Errorf("%s: OOM risk: pessimistic %d > capacity %d", nm.name, nm.pessimistic, nm.capacity)
	}
	if nm.optimistic < 0 || nm.pessimistic < 0 {
		return fmt.Errorf("%s: negative accounting: opt=%d pess=%d", nm.name, nm.optimistic, nm.pessimistic)
	}
	return nil
}
