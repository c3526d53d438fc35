package core

import (
	"sync"

	"slinfer/internal/hwsim"
	"slinfer/internal/model"
	"slinfer/internal/sim"
)

// Arena is one worker's reusable simulation core: a simulator whose event
// arena, heap storage, and free-list — plus a controller whose cluster,
// ledgers, collector, profile registry, pre-bound callbacks, and scratch
// buffers — persist across runs. Acquire → NewController → run → Release is
// the default per-cell cycle everywhere the harness fans simulations out
// (experiments sweeps, the scenario grid, fleet shards, replay): the first
// run on an arena pays construction once, and every later run on it reuses
// the whole allocation graph.
//
// An arena is single-threaded: exactly one goroutine may use it between
// Acquire and Release. The package pool hands any released arena to any
// worker (that handoff is the only synchronization), so nothing inside the
// arena may retain cross-run references to caller state — the reset
// lifecycles (sim.Simulator.Reset, Controller.reset, and everything they
// fan into) exist to enforce that.
//
// Reports built on an arena remain valid after Release: the collector
// disowns every buffer that escapes into a Report instead of truncating it
// (see metrics.Collector.Reset). Controllers, requests, instances, and
// invariant suites do NOT remain valid — extract what you need (violations,
// counts, request IDs) before releasing.
type Arena struct {
	sim *sim.Simulator
	ctl *Controller
}

// arenaPool keeps every released arena for the next AcquireArena, most
// recently released first. Unlike a sync.Pool, a garbage collection does
// not empty it, so whether a run gets a warm arena depends on the acquire
// and release order alone, never on GC timing. It holds at most as many
// arenas as were ever held at once, each sized by its largest run.
var arenaPool struct {
	mu   sync.Mutex
	free []*Arena
}

// AcquireArena returns an arena for exclusive use by the calling goroutine.
// Pair with Release.
func AcquireArena() *Arena {
	arenaPool.mu.Lock()
	defer arenaPool.mu.Unlock()
	n := len(arenaPool.free)
	if n == 0 {
		return &Arena{sim: sim.New()}
	}
	a := arenaPool.free[n-1]
	arenaPool.free[n-1] = nil
	arenaPool.free = arenaPool.free[:n-1]
	return a
}

// Release returns the arena to the pool. The caller must not touch the
// arena, its simulator, or its controller afterwards.
func (a *Arena) Release() {
	arenaPool.mu.Lock()
	arenaPool.free = append(arenaPool.free, a)
	arenaPool.mu.Unlock()
}

// Sim returns the arena's simulator (shared by every controller the arena
// ever builds).
func (a *Arena) Sim() *sim.Simulator { return a.sim }

// NewController resets the arena and returns a controller over the given
// specs, models, and config — behaviorally identical to
// core.New(sim.New(), specs, models, cfg), with every reusable structure
// recycled in place. Determinism across reuse is pinned by
// TestArenaReuseByteIdentical and the golden suite.
func (a *Arena) NewController(specs []hwsim.NodeSpec, models []model.Model, cfg Config) *Controller {
	a.sim.Reset()
	if a.ctl == nil {
		a.ctl = New(a.sim, specs, models, cfg)
	} else {
		a.ctl.reset(specs, models, cfg)
	}
	return a.ctl
}
