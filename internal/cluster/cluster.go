// Package cluster assembles nodes and runs their iteration executors.
//
// An Executor serializes iterations for the instances assigned to it,
// realizing the paper's token-level scheduling loop (Figure 14): it asks a
// policy hook for the next iteration, runs it for its ground-truth duration
// (with deterministic runtime fluctuation), reports completion, and repeats.
//
//   - Elastic sharing (SLINFER): one full-share executor per node,
//     interleaving iterations of all colocated instances.
//   - Exclusive allocation (sllm): one executor per node hosting a single
//     instance.
//   - Static partitioning (sllm+c+s): one executor per partition; partitions
//     run concurrently, each at a fraction of the node's speed.
package cluster

import (
	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/memctl"
	"slinfer/internal/sim"
)

// Executor serializes iterations for its instances.
type Executor struct {
	// Node is the hosting node.
	Node *Node
	// Share is the node fraction this executor commands.
	Share float64
	// Instances currently assigned.
	Instances []*engine.Instance

	// Pick chooses the next iteration; ok=false parks the executor until
	// the next Kick. Set by the controller (compute policy). Work travels
	// by value through the iteration pipeline — Pick runs once per simulated
	// iteration and must not allocate.
	Pick func(e *Executor) (w engine.Work, ok bool)
	// OnDone is invoked after each completed iteration, before the next
	// Pick. Set by the controller.
	OnDone func(e *Executor, w engine.Work, dur sim.Duration)
	// Noise returns the runtime-fluctuation multiplier for one iteration
	// (the reason SLINFER overestimates by 10%, §VI-C). Nil means none.
	Noise func() float64

	busy      bool
	busyUntil sim.Time
	iters     int64

	// inflight holds the running iteration between Kick and its completion
	// event; the executor serializes iterations, so one slot suffices. Kept
	// on the struct (with the package-level execDone trampoline) so starting
	// an iteration schedules zero closures.
	inflight    engine.Work
	inflightDur sim.Duration

	sim *sim.Simulator
}

// Busy reports whether an iteration is in flight.
func (e *Executor) Busy() bool { return e.busy }

// BusyUntil returns when the in-flight iteration completes (valid if Busy).
func (e *Executor) BusyUntil() sim.Time { return e.busyUntil }

// Iterations returns the number of completed iterations.
func (e *Executor) Iterations() int64 { return e.iters }

// AddInstance assigns an instance to this executor.
func (e *Executor) AddInstance(inst *engine.Instance) {
	e.Instances = append(e.Instances, inst)
}

// RemoveInstance unassigns an instance.
func (e *Executor) RemoveInstance(inst *engine.Instance) bool {
	for i, x := range e.Instances {
		if x == inst {
			e.Instances = append(e.Instances[:i], e.Instances[i+1:]...)
			return true
		}
	}
	return false
}

// Kick starts the next iteration if the executor is idle and work exists.
// All state changes flow through OnDone, so controllers call Kick whenever
// new work may have become available (arrivals, resize completions).
//
//slinfer:hotpath
func (e *Executor) Kick() {
	if e.busy || e.Pick == nil {
		return
	}
	w, ok := e.Pick(e)
	if !ok {
		return
	}
	dur := w.Inst.GroundTruthDuration(&w)
	if e.Noise != nil {
		dur *= sim.Duration(e.Noise())
	}
	if s := e.Node.Slow; s > 0 {
		dur *= sim.Duration(s)
	}
	if dur <= 0 {
		dur = sim.Millisecond
	}
	e.busy = true
	e.busyUntil = e.sim.Now().Add(dur)
	e.inflight, e.inflightDur = w, dur
	w.Inst.Iterations++
	// An executor has at most one completion pending and never cancels it,
	// so the completion rides the simulator's lane instead of the heap.
	e.sim.LaneAtFunc(e.busyUntil, execDone, e)
}

// execDone is the iteration-completion trampoline: a plain function value,
// so scheduling it allocates nothing.
//
//slinfer:hotpath
func execDone(a any) { a.(*Executor).finishIteration() }

//slinfer:hotpath
func (e *Executor) finishIteration() {
	w, dur := e.inflight, e.inflightDur
	e.inflight, e.inflightDur = engine.Work{}, 0
	e.busy = false
	e.iters++
	if e.OnDone != nil {
		e.OnDone(e, w, dur)
	}
	e.Kick()
}

// Node is one physical node: a device spec, its memory ledger, and the
// executors carved out of it.
type Node struct {
	// Idx is the node's index within the cluster.
	Idx int
	// Spec is the hardware description.
	Spec hwsim.NodeSpec
	// Mem is the hazard-aware memory ledger.
	Mem *memctl.NodeMemory
	// Executors currently carved from this node.
	Executors []*Executor
	// SpeedFactor derates all executors on this node (harvested-core
	// pseudo-nodes run at cores/32 of a full CPU node, §IX-I3).
	SpeedFactor float64
	// Slow is a transient straggler multiplier on iteration durations
	// (fault injection). 0 means none; values > 1 stretch every iteration
	// started while set. Unlike SpeedFactor it applies at Kick time, so it
	// can change mid-run without re-carving executors.
	Slow float64
	// ReservedBy marks the node as the TP partner of an instance (its ID);
	// 0 means unreserved.
	ReservedBy int

	//slinfer:resetsafe bound to the shared simulator for the node's lifetime
	sim *sim.Simulator
	// spare holds executor shells recycled at the last cluster Reset.
	// Executors removed mid-run are NOT recycled: their completion event may
	// still be pending, and reusing the shell would hand that event a live
	// successor.
	spare []*Executor
}

// NewExecutor carves an executor with the given share from the node,
// reusing a recycled shell when one is available.
func (n *Node) NewExecutor(share float64) *Executor {
	if n.SpeedFactor > 0 {
		share *= n.SpeedFactor
	}
	var e *Executor
	if k := len(n.spare); k > 0 {
		e = n.spare[k-1]
		n.spare[k-1] = nil
		n.spare = n.spare[:k-1]
	} else {
		e = &Executor{}
	}
	e.Node, e.Share, e.sim = n, share, n.sim
	n.Executors = append(n.Executors, e)
	return e
}

// RemoveExecutor drops an executor from the node.
func (n *Node) RemoveExecutor(e *Executor) bool {
	for i, x := range n.Executors {
		if x == e {
			n.Executors = append(n.Executors[:i], n.Executors[i+1:]...)
			return true
		}
	}
	return false
}

// InstanceCount returns the number of instances across all executors.
func (n *Node) InstanceCount() int {
	c := 0
	for _, e := range n.Executors {
		c += len(e.Instances)
	}
	return c
}

// Occupied reports whether the node currently hosts anything: an instance,
// a TP reservation, or in-flight memory (loading weights count).
func (n *Node) Occupied() bool {
	return n.InstanceCount() > 0 || n.ReservedBy != 0 || n.Mem.OptimisticUsed() > 0
}

// Kind returns the node's device kind.
func (n *Node) Kind() hwsim.Kind { return n.Spec.Kind() }

// Cluster is the full testbed.
type Cluster struct {
	Sim   *sim.Simulator
	Nodes []*Node
}

// New builds a cluster from node specs.
func New(s *sim.Simulator, specs []hwsim.NodeSpec) *Cluster {
	c := &Cluster{Sim: s}
	for i, spec := range specs {
		c.Nodes = append(c.Nodes, newNode(s, i, spec))
	}
	return c
}

func newNode(s *sim.Simulator, i int, spec hwsim.NodeSpec) *Node {
	n := &Node{
		Idx: i, Spec: spec,
		Mem:         memctl.New(s, spec.Name, spec.MemBytes),
		SpeedFactor: 1,
		sim:         s,
	}
	if spec.SpeedFactor > 0 {
		n.SpeedFactor = spec.SpeedFactor
	}
	return n
}

// Reset rebuilds the cluster over specs in place, equivalent to
// New(c.Sim, specs) but reusing node shells, their memory ledgers, and
// retired executor shells positionally. The caller must have reset the
// shared simulator first (any events referencing the old executors are
// gone).
func (c *Cluster) Reset(specs []hwsim.NodeSpec) {
	if len(specs) < len(c.Nodes) {
		tail := c.Nodes[len(specs):]
		clear(tail)
		c.Nodes = c.Nodes[:len(specs)]
	}
	for i, spec := range specs {
		if i < len(c.Nodes) {
			c.Nodes[i].reset(i, spec)
		} else {
			c.Nodes = append(c.Nodes, newNode(c.Sim, i, spec))
		}
	}
}

// reset returns the node to its freshly built state for a (possibly
// different) spec, recycling its executors.
func (n *Node) reset(i int, spec hwsim.NodeSpec) {
	n.Idx, n.Spec = i, spec
	n.Mem.Reset(spec.Name, spec.MemBytes)
	for _, e := range n.Executors {
		insts := clearInstances(e.Instances)
		*e = Executor{Instances: insts}
		n.spare = append(n.spare, e)
	}
	clear(n.Executors)
	n.Executors = n.Executors[:0]
	n.SpeedFactor = 1
	if spec.SpeedFactor > 0 {
		n.SpeedFactor = spec.SpeedFactor
	}
	n.Slow = 0
	n.ReservedBy = 0
}

// clearInstances nils an instance slice and returns its empty prefix.
func clearInstances(insts []*engine.Instance) []*engine.Instance {
	for k := range insts {
		insts[k] = nil
	}
	return insts[:0]
}

// NodesOfKind returns the cluster's nodes of one device kind.
func (c *Cluster) NodesOfKind(k hwsim.Kind) []*Node {
	var out []*Node
	for _, n := range c.Nodes {
		if n.Kind() == k {
			out = append(out, n)
		}
	}
	return out
}

// SetSlow applies a straggler multiplier to every node (0 clears it).
// Iterations already in flight keep their original duration; the next
// Kick on each executor picks up the new factor.
func (c *Cluster) SetSlow(f float64) {
	for _, n := range c.Nodes {
		n.Slow = f
	}
}

// CheckInvariants verifies every node's memory invariants.
func (c *Cluster) CheckInvariants() error {
	for _, n := range c.Nodes {
		if err := n.Mem.CheckInvariants(); err != nil {
			return err
		}
	}
	return nil
}
