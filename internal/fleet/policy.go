// Fleet decision points. The front door makes three kinds of decisions per
// epoch — shed or accept each arrival (AdmissionPolicy), pick the shard an
// accepted arrival lands on (RoutingPolicy), and grow or shrink the active
// shard set (AutoscalePolicy) — and every decision sees only the
// end-of-previous-epoch Snapshots plus the front door's own this-epoch
// counters (EpochState). That staleness is the determinism contract: shard
// interiors advance in parallel between epoch barriers, so no decision may
// read live shard state.
//
// Policies may be stateful (RoundRobin keeps a cursor); Run resets the
// routing policy up front, so one instance can be reused across
// sequential runs, but never across concurrent fleets.
package fleet

import (
	"fmt"
	"hash/fnv"
	"strconv"

	"slinfer/internal/kvcache"
	"slinfer/internal/sim"
	"slinfer/internal/workload"
)

// Snapshot is one shard's state as observed at an epoch barrier. It is the
// only shard state policies ever see.
type Snapshot struct {
	// Shard is the shard index; Name its report label.
	Shard int
	Name  string
	// Active reports whether the shard was in the routable set last epoch.
	Active bool
	// Healthy reports whether the shard can take new arrivals: false for
	// crashed and draining shards (fault injection). The front door
	// updates it in place when a fault action fires at the top of an
	// epoch, so policies never route into a shard the fleet just lost.
	// Always true on fault-free runs.
	Healthy bool
	// SlowFactor is the shard's active straggler multiplier (1 when
	// healthy-fast; >1 while a Slowdown fault is in effect). Load-aware
	// policies weight by it.
	SlowFactor float64
	// Now is the shard's virtual clock (== the epoch boundary).
	Now sim.Time
	// Outstanding is submitted minus terminal requests on the shard.
	Outstanding int64
	// Queued is the shard controller's pending-queue length.
	Queued int
	// Instances is the shard's live instance count.
	Instances int
	// Total/Completed/Dropped mirror the shard collector's counters.
	Total, Completed, Dropped int64
	// RoutedLastEpoch counts arrivals the front door sent last epoch.
	RoutedLastEpoch int
	// PrefixResident holds the shard's tiered prefix-store residency per
	// leading PrefixKey segment, sorted by root (empty when the shard's
	// system runs without prefix sharing). KVAffinity scores on it.
	PrefixResident []kvcache.RootResidency
}

// EpochState is the front door's view while routing one epoch's arrivals:
// previous-epoch snapshots of every shard plus the counters of decisions
// already made this epoch. Policies may read all of it during a call; the
// front door reuses one EpochState (and its slices) for the whole run.
type EpochState struct {
	// Epoch is the zero-based epoch index.
	Epoch int
	// Active is this epoch's routable shard count; shards [0, Active) take
	// new arrivals, the rest only drain.
	Active int
	// Snaps holds every shard's end-of-previous-epoch snapshot.
	Snaps []Snapshot
	// Routed counts arrivals already routed to each shard this epoch
	// (crash re-drives included).
	Routed []int
	// Accepted counts requests routed this epoch so far — front-door
	// acceptances plus crash re-drives, so admission sees re-driven load.
	Accepted int
}

// RoutingPolicy picks the shard an accepted request lands on. Route must
// return an index in [0, st.Active) — and should prefer a Healthy one;
// the front door treats an out-of-range pick as a policy bug and fails
// the run's fleet invariants, and re-routes an unhealthy pick to the
// first healthy shard with a violation. Reset returns any internal state
// (cursors, per-epoch memos) to the zero value: the front door calls it
// at the start of every Run, so one policy instance can be shared across
// sequential runs (scenario cells, sweep iterations) without the
// previous run's state leaking into the next.
//
// st, st.Snaps, and st.Routed are valid only for the duration of the Route
// call: the front door reuses them from epoch to epoch, so a policy that
// keeps anything across calls must copy it (KVAffinity keys its memo on
// st.Epoch, never on the pointer).
type RoutingPolicy interface {
	Name() string
	Route(req workload.Request, st *EpochState) int
	Reset()
}

// AdmissionPolicy decides whether a request enters the fleet at all. A
// rejected request goes to the run's rejection ledger under reason and
// never reaches a shard. As with RoutingPolicy.Route, st, st.Snaps, and
// st.Routed are valid only for the duration of the Admit call.
type AdmissionPolicy interface {
	Name() string
	Admit(req workload.Request, st *EpochState) (ok bool, reason string)
}

// AutoscalePolicy resizes the active shard set at each epoch boundary,
// from the previous epoch's snapshots. The returned count is clamped to
// [1, len(snaps)]; deactivated shards stop receiving arrivals but keep
// simulating until they drain.
type AutoscalePolicy interface {
	Name() string
	Scale(active int, snaps []Snapshot) int
}

// ---- Routing stock ---------------------------------------------------------

// RoundRobin cycles arrivals across the active shards, skipping unhealthy
// ones.
type RoundRobin struct{ next int }

func (r *RoundRobin) Name() string { return "rr" }

func (r *RoundRobin) Reset() { r.next = 0 }

func (r *RoundRobin) Route(_ workload.Request, st *EpochState) int {
	for tries := 0; tries < st.Active; tries++ {
		i := r.next % st.Active
		r.next++
		if st.Snaps[i].Healthy {
			return i
		}
	}
	// No healthy shard; the front door rejects before calling Route, so
	// this is only reachable from a direct call.
	return 0
}

// LeastOutstanding routes to the healthy active shard with the lowest
// effective load — outstanding requests (previous-epoch snapshot plus
// what the front door already routed there this epoch) weighted by the
// shard's straggler factor, so a 3x-slow shard looks 3x as loaded; ties
// break to the lowest index. The weighting is exact arithmetic on
// fault-free runs: integer loads convert to float64 losslessly and
// multiply by exactly 1.
type LeastOutstanding struct{}

func (LeastOutstanding) Name() string { return "least" }

func (LeastOutstanding) Reset() {}

func (LeastOutstanding) Route(_ workload.Request, st *EpochState) int {
	best, bestLoad := -1, 0.0
	for i := 0; i < st.Active; i++ {
		if !st.Snaps[i].Healthy {
			continue
		}
		load := float64(st.Snaps[i].Outstanding+int64(st.Routed[i])) * st.Snaps[i].SlowFactor
		if best < 0 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// ModelAffinity pins each model to a shard by rendezvous (highest-random-
// weight) hashing over the active set: a model's requests land together —
// maximizing warm-instance reuse — and resizing the fleet by one shard only
// remaps the models that hashed to the removed (or gained) shard, not the
// whole keyspace.
type ModelAffinity struct{}

func (ModelAffinity) Name() string { return "affinity" }

func (ModelAffinity) Reset() {}

func (ModelAffinity) Route(req workload.Request, st *EpochState) int {
	return rendezvousHealthy(req.ModelName, st)
}

// rendezvous picks the active shard with the highest-random-weight hash of
// (key, shard): stable per key, and resizing the active set by one shard only
// remaps the keys that hashed to the removed (or gained) shard.
func rendezvous(key string, active int) int {
	best, bestW := 0, uint64(0)
	for i := 0; i < active; i++ {
		if w := rendezvousWeight(key, i); i == 0 || w > bestW {
			best, bestW = i, w
		}
	}
	return best
}

// rendezvousWeight is the per-(key, shard) highest-random-weight hash.
func rendezvousWeight(key string, shard int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte("#"))
	h.Write([]byte(strconv.Itoa(shard)))
	return h.Sum64()
}

// rendezvousHealthy is rendezvous restricted to the healthy subset of the
// active set. Restricting the candidate set preserves the
// minimal-disruption property: losing shard s only remaps the keys whose
// argmax weight was s — every other key's winner is unchanged
// (TestRendezvousMinimalDisruption). With every shard healthy it equals
// rendezvous exactly; with none it returns 0 (the front door rejects
// before routing in that case).
func rendezvousHealthy(key string, st *EpochState) int {
	best, bestW := -1, uint64(0)
	for i := 0; i < st.Active; i++ {
		if !st.Snaps[i].Healthy {
			continue
		}
		if w := rendezvousWeight(key, i); best < 0 || w > bestW {
			best, bestW = i, w
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// KVAffinity routes each request to the active shard expected to serve the
// most prefix bytes from its tiered KV store: shards are scored by the
// end-of-previous-epoch residency of the request's prefix root (its leading
// PrefixKey segment — the template, for chat workloads). Requests routed
// earlier in the same epoch count as residency-in-the-making, so a burst of
// cold same-root sessions lands together instead of scattering before any
// snapshot can see their blocks. Fully cold roots (and keyless requests)
// fall back to rendezvous hashing — on the root so future same-root traffic
// agrees, or on the model when there is no key.
type KVAffinity struct {
	epoch     int
	rootShard map[string]int // root -> shard routed this epoch
}

func (k *KVAffinity) Name() string { return "kvaffinity" }

func (k *KVAffinity) Reset() {
	k.epoch = 0
	clear(k.rootShard)
}

func (k *KVAffinity) Route(req workload.Request, st *EpochState) int {
	if req.PrefixKey == "" {
		return rendezvousHealthy(req.ModelName, st)
	}
	if k.rootShard == nil {
		k.rootShard = map[string]int{}
	} else if st.Epoch != k.epoch {
		clear(k.rootShard)
	}
	k.epoch = st.Epoch
	root := kvcache.PrefixRoot(req.PrefixKey)
	if s, ok := k.rootShard[root]; ok && s < st.Active && st.Snaps[s].Healthy {
		return s
	}
	best, bestBytes := -1, int64(0)
	for i := 0; i < st.Active; i++ {
		if !st.Snaps[i].Healthy {
			continue
		}
		if b := residentBytes(st.Snaps[i].PrefixResident, root); b > bestBytes {
			best, bestBytes = i, b
		}
	}
	if best < 0 {
		best = rendezvousHealthy(root, st)
	}
	k.rootShard[root] = best
	return best
}

// residentBytes finds one root's resident bytes in a sorted residency slice.
func residentBytes(res []kvcache.RootResidency, root string) int64 {
	lo, hi := 0, len(res)
	for lo < hi {
		mid := (lo + hi) / 2
		if res[mid].Root < root {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(res) && res[lo].Root == root {
		return res[lo].Bytes
	}
	return 0
}

// RoutingByName resolves a routing policy by CLI/scenario-axis name. Empty
// selects round-robin.
func RoutingByName(name string) (RoutingPolicy, error) {
	switch name {
	case "", "rr", "round-robin":
		return &RoundRobin{}, nil
	case "least", "least-outstanding":
		return LeastOutstanding{}, nil
	case "affinity", "model-affinity":
		return ModelAffinity{}, nil
	case "kvaffinity", "kv-affinity":
		return &KVAffinity{}, nil
	default:
		return nil, fmt.Errorf("fleet: unknown routing policy %q (want rr, least, affinity, or kvaffinity)", name)
	}
}

// ---- Admission stock -------------------------------------------------------

// AcceptAll admits everything.
type AcceptAll struct{}

func (AcceptAll) Name() string { return "accept-all" }

func (AcceptAll) Admit(workload.Request, *EpochState) (bool, string) { return true, "" }

// MaxOutstanding sheds arrivals once the active fleet's outstanding load —
// previous-epoch outstanding plus this epoch's acceptances — reaches
// PerShard x active shards. The shed request is ledgered, not queued: the
// front door models an overload-protection tier, not a second queue.
type MaxOutstanding struct {
	// PerShard is the outstanding-request budget per active shard.
	PerShard int
}

func (m MaxOutstanding) Name() string { return fmt.Sprintf("shed@%d", m.PerShard) }

func (m MaxOutstanding) Admit(_ workload.Request, st *EpochState) (bool, string) {
	out := int64(st.Accepted)
	for i := 0; i < st.Active; i++ {
		out += st.Snaps[i].Outstanding
	}
	if out >= int64(m.PerShard*st.Active) {
		return false, ReasonFleetOverload
	}
	return true, ""
}

// ---- Autoscale stock -------------------------------------------------------

// FixedFleet keeps every shard active.
type FixedFleet struct{}

func (FixedFleet) Name() string { return "fixed" }

func (FixedFleet) Scale(_ int, snaps []Snapshot) int { return len(snaps) }

// LoadThreshold grows the active set by one shard per epoch while the mean
// outstanding load per active shard exceeds High, and shrinks by one while
// it is below Low (hysteresis: Low < High or the set oscillates). Min
// bounds the shrink; zero means one shard.
type LoadThreshold struct {
	// High and Low are per-active-shard outstanding-request watermarks.
	High, Low int
	// Min is the smallest active set the policy will shrink to.
	Min int
}

func (p LoadThreshold) Name() string { return fmt.Sprintf("load[%d,%d]", p.Low, p.High) }

func (p LoadThreshold) Scale(active int, snaps []Snapshot) int {
	if active < 1 {
		active = 1
	}
	var out int64
	for i := 0; i < active && i < len(snaps); i++ {
		out += snaps[i].Outstanding
	}
	perShard := float64(out) / float64(active)
	min := p.Min
	if min < 1 {
		min = 1
	}
	switch {
	case perShard > float64(p.High) && active < len(snaps):
		return active + 1
	case perShard < float64(p.Low) && active > min:
		return active - 1
	}
	return active
}
