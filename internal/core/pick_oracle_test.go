package core

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"slinfer/internal/compute"
	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/model"
	"slinfer/internal/sim"
	"slinfer/internal/workload"
)

// pickMinHeadroomRef is compute.PickMinHeadroom as it was before instances
// cached their earliest deadline: every pick asks every instance for its
// most urgent work, which rescans all of its requests. It checks both the
// cached deadlines (including the one CompleteDecode folds in) and the
// pick's direct decode for a winner with no prefill waiting.
func pickMinHeadroomRef(insts []*engine.Instance, now sim.Time) (best engine.Work, ok bool) {
	var bestH sim.Duration
	for _, inst := range insts {
		w, h, has := inst.NextWork(now)
		if !has {
			continue
		}
		if !ok || h < bestH {
			best, bestH, ok = w, h, true
		}
	}
	return best, ok
}

// pickOracle runs pickMinHeadroomRef beside every pick of the controllers
// it watches and keeps the first pick where the two differ. Fleet shards
// pick on worker goroutines, hence the lock.
type pickOracle struct {
	mu    sync.Mutex
	picks int64
	diff  string
}

// watch swaps c's pick for one that checks each answer against the
// reference. It leaves a controller that does not pick by headroom alone.
func (o *pickOracle) watch(c *Controller) {
	if !c.Cfg.TokenLevelSched {
		return
	}
	c.pick = func(insts []*engine.Instance, now sim.Time) (engine.Work, bool) {
		got, ok := compute.PickMinHeadroom(insts, now)
		want, wantOK := pickMinHeadroomRef(insts, now)
		o.mu.Lock()
		o.picks++
		if (got != want || ok != wantOK) && o.diff == "" {
			o.diff = fmt.Sprintf("pick %d at t=%v: got %+v (ok %v), reference %+v (ok %v)",
				o.picks, now, got, ok, want, wantOK)
		}
		o.mu.Unlock()
		return got, ok
	}
}

// check fails t on the first differing pick, or when nothing was picked.
func (o *pickOracle) check(t *testing.T) {
	t.Helper()
	if o.diff != "" {
		t.Fatal(o.diff)
	}
	if o.picks == 0 {
		t.Fatal("the oracle saw no pick")
	}
}

// TestPickMatchesReference is the oracle for the cached earliest deadline:
// on every golden preset and shape, each pick compute.PickMinHeadroom
// makes is the work today's full scan picks.
func TestPickMatchesReference(t *testing.T) {
	presets := []Config{SLINFER(), Sllm(), SllmC(), SllmCS(), NEOPlus(16)}
	pd := SLINFER()
	pd.Name, pd.PD = pd.Name+"/pd", true
	prefix := SLINFER()
	prefix.PrefixCache = goldenPrefixTiers
	shapes := []struct {
		dir      string
		cpu, gpu int
		gen      func() ([]model.Model, workload.Trace)
		presets  []Config
	}{
		{dir: "light", cpu: 2, gpu: 2, gen: func() ([]model.Model, workload.Trace) { return goldenShape(16, 0) }, presets: append(presets, pd)},
		{dir: "saturated", cpu: 1, gpu: 1, gen: func() ([]model.Model, workload.Trace) { return goldenShape(24, 360) }, presets: append(presets, pd)},
		{dir: "prefix", cpu: 2, gpu: 2, gen: func() ([]model.Model, workload.Trace) { return goldenChat(8) }, presets: []Config{prefix}},
	}
	for _, sh := range shapes {
		models, tr := sh.gen()
		for _, cfg := range sh.presets {
			t.Run(filepath.Join(sh.dir, cfg.Name), func(t *testing.T) {
				c := New(sim.New(), hwsim.Testbed(sh.cpu, sh.gpu), models, cfg)
				o := &pickOracle{}
				o.watch(c)
				c.Run(tr)
				o.check(t)
			})
		}
	}
}
