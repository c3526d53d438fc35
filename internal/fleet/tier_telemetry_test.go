package fleet

import (
	"testing"

	"slinfer/internal/core"
	"slinfer/internal/faults"
	"slinfer/internal/hwsim"
	"slinfer/internal/kvcache"
	"slinfer/internal/model"
	"slinfer/internal/sim"
	"slinfer/internal/telemetry"
	"slinfer/internal/workload"
)

// tierKind maps a tier telemetry kind to its slot in tierTotals.
func tierKind(k telemetry.Kind) (int, bool) {
	switch k {
	case telemetry.KindTierPromote:
		return 0, true
	case telemetry.KindTierSpill:
		return 1, true
	case telemetry.KindTierEvict:
		return 2, true
	}
	return 0, false
}

// tierTotals is bytes promoted, spilled and evicted, in that order.
type tierTotals [3]int64

func ledgerTotals(l kvcache.TierLedger) tierTotals {
	return tierTotals{l.PromotedBytes, l.SpillBytes, l.FreedBytes}
}

// sumTierEvents sums one recorder's tier events per kind and checks that
// each store call emitted at most one event per kind. A store call's
// events are a run of consecutive tier events at one timestamp. On a
// single controller (fleet = false) every such run is closed by the event
// of the call that made it: a prefix hit or miss after a Lookup, the
// completion after an Insert. A fleet's GPU-tier resize at an epoch top
// emits a run closed by nothing in particular.
func sumTierEvents(t *testing.T, evs []telemetry.Event, fleet bool) (sum tierTotals, events int) {
	t.Helper()
	var seen [3]bool
	for i, ev := range evs {
		k, ok := tierKind(ev.Kind)
		if !ok {
			continue
		}
		events++
		if i == 0 || evs[i-1].T != ev.T {
			seen = [3]bool{}
		} else if _, prevTier := tierKind(evs[i-1].Kind); !prevTier {
			seen = [3]bool{}
		}
		if seen[k] {
			t.Fatalf("event %d: second %v event in one store call at t=%v", i, ev.Kind, ev.T)
		}
		seen[k] = true
		sum[k] += ev.A
		if fleet {
			continue
		}
		j := i + 1
		for j < len(evs) {
			if _, tier := tierKind(evs[j].Kind); !tier {
				break
			}
			j++
		}
		if j == len(evs) {
			t.Fatalf("event %d: tier events end the stream, want them closed by their store call", i)
		}
		switch evs[j].Kind {
		case telemetry.KindPrefixHit, telemetry.KindPrefixMiss, telemetry.KindComplete:
		default:
			t.Fatalf("event %d: tier events closed by %v, want a prefix lookup or a completion", i, evs[j].Kind)
		}
	}
	return sum, events
}

// chatPrefixSetup is a multi-turn chat trace and a SLINFER config whose
// tight prefix store keeps blocks moving between tiers.
func chatPrefixSetup() ([]model.Model, workload.Trace, core.Config) {
	models := model.Replicas(model.Llama2_7B, 8)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	tr := workload.GenerateChat(workload.ChatConfig{
		ModelNames: names, Duration: 4 * sim.Minute, Seed: 7, Sessions: 64,
	})
	sys := core.SLINFER()
	sys.PrefixCache = kvcache.TieredConfig{Enabled: true, GPUBytes: 512 << 20, CPUBytes: 2 << 30}
	return models, tr, sys
}

// TestTierEventsMatchLedger pins what tier telemetry consumers read: per
// kind, the summed bytes of the tier events equal the prefix store's
// lifetime PromotedBytes, SpillBytes and FreedBytes, and each store call
// emits at most one event per kind — on a single controller, and on a
// fleet whose KV tier degrades mid-run.
func TestTierEventsMatchLedger(t *testing.T) {
	models, tr, sys := chatPrefixSetup()

	t.Run("controller", func(t *testing.T) {
		cfg := sys
		cfg.Telemetry = telemetry.New(telemetry.Options{Spans: true}).Recorder(0)
		c := core.New(sim.New(), hwsim.Testbed(2, 2), models, cfg)
		c.Run(tr)
		want := ledgerTotals(c.PrefixStore().Ledger)
		got, events := sumTierEvents(t, cfg.Telemetry.Events(), false)
		if got != want {
			t.Fatalf("tier event bytes (promote, spill, evict) = %v, ledger = %v", got, want)
		}
		if want[0] == 0 || want[1] == 0 || want[2] == 0 {
			t.Fatalf("run did not exercise every tier path: %v", want)
		}
		t.Logf("%d tier events for %v bytes", events, want)
	})

	t.Run("kvdegrade fleet", func(t *testing.T) {
		const shards = 4
		telem := telemetry.New(telemetry.Options{Spans: true})
		cfg := Config{
			System: sys, Shards: UniformShards(shards, 2, 2), Models: models,
			Routing: &KVAffinity{}, Workers: 2, Seed: 7,
			AttachInvariants: true, Telemetry: telem,
			Faults: faults.Preset("kvdegrade", shards, tr.Duration, 7),
		}
		fd := newFrontDoor(cfg.withDefaults(), tr)
		fd.runEpochs()
		fd.drain()
		want := make([]tierTotals, shards)
		for i, sd := range fd.shards {
			want[i] = ledgerTotals(sd.ctl.PrefixStore().Ledger)
		}
		res := fd.finish()
		if !res.Ok() {
			t.Fatalf("violations: %v %v", res.Violations, res.ShardViolations)
		}
		if res.Report.FaultEvents == 0 {
			t.Fatal("kvdegrade plan applied nothing")
		}
		for i := range want {
			got, _ := sumTierEvents(t, telem.Recorder(i).Events(), true)
			if got != want[i] {
				t.Fatalf("shard %d: tier event bytes (promote, spill, evict) = %v, ledger = %v", i, got, want[i])
			}
		}
	})
}
