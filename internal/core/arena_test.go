package core

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"slinfer/internal/hwsim"
	"slinfer/internal/model"
	"slinfer/internal/sim"
	"slinfer/internal/workload"
)

// freshCanonical runs a trace on a brand-new simulator and controller — the
// reference path arena reuse must be indistinguishable from.
func freshCanonical(models []model.Model, tr workload.Trace, cfg Config) string {
	s := sim.New()
	return New(s, hwsim.Testbed(2, 2), models, cfg).Run(tr).Canonical()
}

// arenaCell is one run of a reuse test: a config and the trace it replays.
type arenaCell struct {
	cfg    Config
	models []model.Model
	tr     workload.Trace
}

// TestArenaReuseByteIdentical pins the tentpole correctness contract: the
// same cell run twice through ONE reused arena is byte-identical to a fresh
// build, for every system preset — including presets with different policy
// compositions run back-to-back on the same arena, so state from one config
// leaking into the next would be caught, not just same-config residue.
func TestArenaReuseByteIdentical(t *testing.T) {
	models, tr := perfTrace(2)
	presets := []Config{SLINFER(), Sllm(), SllmC(), SllmCS(), NEOPlus(16)}

	a := AcquireArena()
	defer a.Release()
	// Warm the arena with every preset once, in order, then run the whole
	// roster again: the second pass reuses state shaped by a *different*
	// preceding config than the first pass did.
	var first []string
	for _, cfg := range presets {
		first = append(first, a.NewController(hwsim.Testbed(2, 2), models, cfg).Run(tr).Canonical())
	}
	for i, cfg := range presets {
		fresh := freshCanonical(models, tr, cfg)
		if first[i] != fresh {
			t.Errorf("%s: first arena run diverged from fresh build:\n--- arena ---\n%s--- fresh ---\n%s",
				cfg.Name, first[i], fresh)
		}
		again := a.NewController(hwsim.Testbed(2, 2), models, cfg).Run(tr).Canonical()
		if again != fresh {
			t.Errorf("%s: reused arena run diverged from fresh build:\n--- arena ---\n%s--- fresh ---\n%s",
				cfg.Name, again, fresh)
		}
	}

	// Recycled requests and instances must carry nothing across runs. A
	// prefix hit (CachedPrefixTokens, PrefixXfer) and a PD hand-off
	// (Transferring, decode-only instances) set state that a keyless SLINFER
	// run never does, so each runs back to back with one, in both orders,
	// every run checked against a fresh build.
	prefix := SLINFER()
	prefix.Name += "+prefix"
	prefix.PrefixCache = goldenPrefixTiers
	pd := SLINFER()
	pd.Name += "+pd"
	pd.PD = true
	chatModels, chat := goldenChat(8)
	keyless := arenaCell{SLINFER(), models, tr}
	for _, special := range []arenaCell{{prefix, chatModels, chat}, {pd, models, tr}} {
		for _, pair := range [][2]arenaCell{{special, keyless}, {keyless, special}} {
			for _, cell := range pair {
				got := a.NewController(hwsim.Testbed(2, 2), cell.models, cell.cfg).Run(cell.tr).Canonical()
				if fresh := freshCanonical(cell.models, cell.tr, cell.cfg); got != fresh {
					t.Errorf("%s in %s then %s: arena run diverged from fresh build:\n--- arena ---\n%s--- fresh ---\n%s",
						cell.cfg.Name, pair[0].cfg.Name, pair[1].cfg.Name, got, fresh)
				}
			}
		}
	}
}

// TestArenaReuseAcrossTopologies: reuse must also be clean when consecutive
// runs change the cluster shape (the nightly grid interleaves 2c2g and 4c4g
// cells on the same workers), growing and shrinking the recycled cluster.
func TestArenaReuseAcrossTopologies(t *testing.T) {
	models, tr := perfTrace(2)
	a := AcquireArena()
	defer a.Release()
	for _, shape := range []struct{ cpu, gpu int }{{2, 2}, {4, 4}, {1, 1}, {2, 2}} {
		specs := hwsim.Testbed(shape.cpu, shape.gpu)
		got := a.NewController(specs, models, SLINFER()).Run(tr).Canonical()
		s := sim.New()
		want := New(s, hwsim.Testbed(shape.cpu, shape.gpu), models, SLINFER()).Run(tr).Canonical()
		if got != want {
			t.Fatalf("%dc%dg: arena run diverged from fresh build:\n--- arena ---\n%s--- fresh ---\n%s",
				shape.cpu, shape.gpu, got, want)
		}
	}
}

// TestArenaReuseAcrossRosters: a request's model binding is an index into
// its controller's records, so runs on one arena that change the roster
// (24 models, then 8 of them registered in reverse order, then the 24
// again) must each match a fresh build. Five minutes at 6 rps on the 1+1
// testbed keep the queue long, so every run retries placement, preempts and
// migrates bound requests.
// Submit rebinds every request it hands out, so a binding a reset kept would
// not move a report; the test checks the reset itself: every recycled
// request must come out of it unbound.
func TestArenaReuseAcrossRosters(t *testing.T) {
	wide := model.Replicas(model.Llama2_7B, 24)
	narrow := slices.Clone(wide[:8])
	slices.Reverse(narrow)
	specs := hwsim.Testbed(1, 1)
	a := AcquireArena()
	defer a.Release()
	for _, models := range [][]model.Model{wide, narrow, wide} {
		names := make([]string, len(models))
		for i, m := range models {
			names[i] = m.Name
		}
		tr := workload.Generate(workload.TraceConfig{
			ModelNames: names, Duration: 5 * sim.Minute, Seed: 29,
			Dataset: workload.AzureConv, AggregateRPM: 360,
		})
		c := a.NewController(specs, models, SLINFER())
		for i, req := range c.reqPool {
			if req.Rec != 0 {
				t.Fatalf("%d models: reset left recycled request %d bound to record %d", len(models), i, req.Rec)
			}
		}
		got := c.Run(tr).Canonical()
		if want := New(sim.New(), specs, models, SLINFER()).Run(tr).Canonical(); got != want {
			t.Fatalf("%d models: arena run diverged from fresh build:\n--- arena ---\n%s--- fresh ---\n%s",
				len(models), got, want)
		}
	}
}

// TestArenaPoolNotSharedAcrossWorkers drives many goroutines through the
// acquire/run/release cycle concurrently; run under -race (CI does) it
// proves an arena is never visible to two workers at once — the pool handoff
// is the only synchronization an arena gets, so any sharing bug is a data
// race on the simulator's event slots. Every result must also match the
// fresh reference: a worker observing another worker's arena mid-run would
// diverge even if the race detector missed the overlap.
func TestArenaPoolNotSharedAcrossWorkers(t *testing.T) {
	models, tr := perfTrace(1)
	want := freshCanonical(models, tr, SLINFER())

	workers := 2 * runtime.GOMAXPROCS(0)
	const runsPerWorker = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers*runsPerWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < runsPerWorker; r++ {
				a := AcquireArena()
				got := a.NewController(hwsim.Testbed(2, 2), models, SLINFER()).Run(tr).Canonical()
				a.Release()
				if got != want {
					errs <- got
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if got, ok := <-errs; ok {
		t.Fatalf("concurrent arena run diverged from fresh build:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
