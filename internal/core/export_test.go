package core

import (
	"testing"

	"slinfer/internal/engine"
	"slinfer/internal/model"
	"slinfer/internal/policy"
)

// PickOracle is pickOracle for the package's external tests.
type PickOracle struct{ o pickOracle }

// WatchPicks returns cfg with its placement policy wrapped so that every
// controller built from it checks each pick against pickMinHeadroomRef
// into o.
func WatchPicks(cfg Config, o *PickOracle) Config {
	cfg = cfg.withDefaults().composePolicies()
	cfg.Placement = watchedPlacement{PlacementPolicy: cfg.Placement, o: &o.o}
	return cfg
}

// Check fails t on the first differing pick, or when nothing was picked.
func (o *PickOracle) Check(t *testing.T) {
	t.Helper()
	o.o.check(t)
}

// watchedPlacement installs a pick oracle on every controller that
// attempts a scale-out through it. A run's first instance always comes
// from a scale-out, so the oracle sees every pick of the run, including
// those of a fleet shard rebuilt after a crash.
type watchedPlacement struct {
	policy.PlacementPolicy
	o *pickOracle
}

func (w watchedPlacement) PlaceNew(h policy.Host, req *engine.Request, m model.Model) bool {
	w.o.watch(h.(hostView).c)
	return w.PlacementPolicy.PlaceNew(h, req, m)
}
