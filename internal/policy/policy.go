// Package policy defines the pluggable decision layer of the SLINFER
// controller: where new instances land (PlacementPolicy), when neighbours
// are preempted to consolidate load (PreemptionPolicy), and how long idle
// instances linger before reclamation (KeepAlivePolicy).
//
// Policies program against the Host interface — the narrow controller
// surface that exposes cluster topology, validation primitives, and the
// admission/teardown actions — so a serving scheme is a composition of
// three small values rather than a fork of the controller. The paper's
// five systems (SLINFER, sllm, sllm+c, sllm+c+s, NEO+) are all expressed
// this way in core/config.go, and user-defined policies compose the same
// primitives (see examples/custompolicy).
package policy

import (
	"slinfer/internal/cluster"
	"slinfer/internal/compute"
	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/model"
	"slinfer/internal/perfmodel"
	"slinfer/internal/sim"
)

// SharingMode selects how node compute is divided among instances.
type SharingMode int

const (
	// Exclusive gives each instance a whole node (ServerlessLLM-style).
	Exclusive SharingMode = iota
	// Static carves fixed partitions (sllm+c+s: half-node instances).
	Static
	// Elastic shares the full node across instances at token granularity
	// (SLINFER).
	Elastic
)

func (m SharingMode) String() string {
	switch m {
	case Exclusive:
		return "exclusive"
	case Static:
		return "static"
	default:
		return "elastic"
	}
}

// Host is the controller surface policies call back into. It deliberately
// exposes primitives (topology, validation, admission actions) rather than
// decisions: the decisions are the policies' job.
//
// A method that needs the model of the request being placed names it by
// the request: the controller reaches a request's model record through the
// binding it made at Submit, with no name lookup and no model copy.
type Host interface {
	// Now returns the current virtual time.
	Now() sim.Time

	// Nodes returns every cluster node in index order. A node carries its
	// own carved share and shared executor (cluster.Node.Carved, Shared).
	Nodes() []*cluster.Node

	// AppendRouteCandidates appends the live instances of req's model to
	// dst in routing order (CPU-first when configured, then
	// largest-batch-first) and returns the extended slice.
	AppendRouteCandidates(dst []*engine.Instance, req *engine.Request) []*engine.Instance
	// Scratch returns working buffers for the calling policy method. They
	// stay the caller's until it returns: the host actions below run one
	// depth deeper, so a policy call they nest gets a Scratch of its own.
	Scratch() *Scratch
	// ExecutorOf returns the executor an instance runs on, or nil.
	ExecutorOf(inst *engine.Instance) *cluster.Executor
	// SharedExecutor returns a node's whole-node shared executor
	// (cluster.Node.Shared). Elastic sharing wires one per node at
	// construction; other configurations get one wired on first demand.
	SharedExecutor(nodeIdx int) *cluster.Executor
	// WireExecutor installs the controller's iteration handlers on a
	// freshly carved executor.
	WireExecutor(ex *cluster.Executor)

	// Profile returns the interpolated performance profile of req's model
	// on a device class at an (speed-adjusted) share.
	Profile(class hwsim.DeviceClass, req *engine.Request, share float64) *perfmodel.Profile
	// FixedLimit returns the baseline concurrency limit of req's model on
	// (class, share); ok is false when the configuration has no fixed
	// limit.
	FixedLimit(req *engine.Request, class hwsim.DeviceClass, share float64) (limit int, ok bool)

	// Validator exposes the shadow-validation engine for dry runs the
	// policy assembles itself.
	Validator() *compute.Validator
	// ValidateOn shadow-validates adding rv to cand on its executor,
	// applying in-flight resize and cold-start blocking; candBlock
	// additionally delays the candidate.
	ValidateOn(ex *cluster.Executor, cand *engine.Instance, rv compute.ReqView, tpot sim.Duration, candBlock sim.Duration) bool
	// ValidateScaleOut checks that spawning a fresh instance (profile
	// prof, cold-start loadDur) for req on ex keeps colocated SLOs.
	ValidateScaleOut(ex *cluster.Executor, prof *perfmodel.Profile, req *engine.Request, loadDur sim.Duration) bool

	// CreationBytes returns the per-node memory a new instance of req's
	// model m needs at creation on n for req; negative means the node can
	// never host it. A non-negative answer is at least m.WeightBytes() +
	// hwsim.ActivationReserve, so BinPack.Feasible drops a node whose free
	// memory is below that floor without asking.
	CreationBytes(n *cluster.Node, share float64, req *engine.Request) int64

	// Spawn creates an instance of req's model on nodes at share and
	// places req on it; false when memory admission fails.
	Spawn(nodes []*cluster.Node, share float64, req *engine.Request) bool
	// Admit runs the full admission pipeline for req on an existing
	// instance.
	Admit(req *engine.Request, inst *engine.Instance) bool
	// Migrate pulls a request off an instance and re-places it elsewhere.
	Migrate(req *engine.Request, from *engine.Instance)
	// Reclaim tears an idle instance down.
	Reclaim(inst *engine.Instance)
	// ArmReclaim schedules inst for reclamation after idle, replacing any
	// earlier timer.
	ArmReclaim(inst *engine.Instance, idle sim.Duration)
	// RecordPreemption counts one executed preemption in the run metrics.
	RecordPreemption()
}

// Scratch holds the slices one policy call refills instead of
// allocating, named for the preemption walk that needs several at once.
// Values are shared across concurrently advancing fleet shards and must
// hold no state, so the buffers live on the host, never on a policy.
type Scratch struct {
	// Growers, Victims and Rehome are instance lists: the request's
	// route, the grower's preemption victims, and a victim's rehoming
	// route.
	Growers, Victims, Rehome []*engine.Instance
	// Moved holds a victim's requests, which a preemption dry-runs and
	// then migrates.
	Moved []*engine.Request
}

// PlacementPolicy decides where new instances are created and how node
// compute is carved for them. In every method, m is req's model.
type PlacementPolicy interface {
	// Feasible reports whether node n may host a fresh instance of m for
	// req, and the compute share the instance gets there. BinPack.PlaceNew
	// and the controller's PD decode placement filter nodes through it
	// before AdmitScaleOut.
	Feasible(h Host, n *cluster.Node, m *model.Model, req *engine.Request) (share float64, ok bool)
	// AdmitScaleOut reports whether spawning a fresh instance of m for req
	// on node n passes the mode's colocation validation.
	AdmitScaleOut(h Host, n *cluster.Node, m *model.Model, share float64, req *engine.Request) bool
	// PlaceNew scales out a fresh instance for req; reports success. It
	// takes m by value, as TryPreempt does, because the benchmark's policy
	// spies (bench/tracing.go) implement both signatures.
	PlaceNew(h Host, req *engine.Request, m model.Model) bool
	// CarveExecutor returns the executor a new instance on nodes runs on,
	// carving and wiring a dedicated one when the mode partitions compute.
	CarveExecutor(h Host, nodes []*cluster.Node, share float64) *cluster.Executor
	// ReleaseExecutor undoes CarveExecutor when an instance is torn down.
	ReleaseExecutor(h Host, inst *engine.Instance, ex *cluster.Executor)
}

// PreemptionPolicy decides whether (and which) neighbours are preempted so
// an existing instance can absorb a request in place.
type PreemptionPolicy interface {
	// TryPreempt attempts to admit req by preempting a victim; reports
	// success. Implementations must run every dry run before their first
	// side effect and leave the cluster unchanged when a dry run fails.
	// Once committed, the final Host.Admit can still reject: a victim with
	// a resize in flight stays on the executor until it lands, Admit plans
	// memory, and Admit charges the scale-up stall and every in-flight
	// resize and cold start, which the grower dry run
	// (Validator.ValidateWithout) does not. TryPreempt then reports false
	// with the victim's requests already migrated and the victim reclaimed.
	TryPreempt(h Host, req *engine.Request, m model.Model) bool
}

// KeepAlivePolicy decides how long an idle instance is retained. Arm is
// invoked every time an instance goes idle.
type KeepAlivePolicy interface {
	Arm(h Host, inst *engine.Instance)
}
