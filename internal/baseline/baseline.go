// Package baseline names and registers the serving systems the paper
// compares (§IX-A): ServerlessLLM-style exclusive allocation (sllm), its
// CPU-enabled variant (sllm+c), static time-sharing (sllm+c+s), SLINFER
// itself, NEO-style CPU assist, and the PD-disaggregated variants of §IX-G.
package baseline

import (
	"slinfer/internal/core"
	"slinfer/internal/kvcache"
	"slinfer/internal/policy"
)

// Systems returns the four systems of the end-to-end comparison, in the
// paper's presentation order.
func Systems() []core.Config {
	return []core.Config{core.Sllm(), core.SllmC(), core.SllmCS(), core.SLINFER()}
}

// ByName resolves a system configuration by its report label.
func ByName(name string) (core.Config, bool) {
	switch name {
	case "sllm":
		return core.Sllm(), true
	case "sllm+c":
		return core.SllmC(), true
	case "sllm+c+s":
		return core.SllmCS(), true
	case "SLINFER", "slinfer":
		return core.SLINFER(), true
	case "NEO+", "neo+":
		return core.NEOPlus(16), true
	case "SLINFER+prefix", "slinfer+prefix":
		return WithPrefixCache(core.SLINFER()), true
	default:
		return core.Config{}, false
	}
}

// WithPrefixCache returns a system variant with the tiered prefix-sharing KV
// store enabled at its default sizing (4 GiB GPU tier, 4x host tier). The
// variant only changes behavior on traces whose requests carry PrefixKeys.
func WithPrefixCache(cfg core.Config) core.Config {
	cfg.Name = cfg.Name + "+prefix"
	cfg.PrefixCache = kvcache.TieredConfig{Enabled: true}
	return cfg
}

// Disaggregated returns the PD-disaggregated variant of a system (§IX-G).
func Disaggregated(cfg core.Config) core.Config {
	cfg.Name = cfg.Name + "/pd"
	cfg.PD = true
	return cfg
}

// Ablations returns the §IX-C single-component-disabled variants of
// SLINFER, keyed by the figure's labels.
func Ablations() map[string]core.Config {
	full := core.SLINFER()

	noCPU := core.SLINFER()
	noCPU.Name = "w/o CPU"
	noCPU.UseCPU = false
	noCPU.CPUFirst = false

	noConsolidation := core.SLINFER()
	noConsolidation.Name = "w/o Consolidation"
	noConsolidation.Consolidation = false

	noSharing := core.SLINFER()
	noSharing.Name = "w/o Sharing"
	noSharing.Sharing = policy.Exclusive
	noSharing.Consolidation = false
	noSharing.FixedLimit = core.PaperFixedLimits

	return map[string]core.Config{
		"SLINFER-Full":      full,
		"w/o CPU":           noCPU,
		"w/o Consolidation": noConsolidation,
		"w/o Sharing":       noSharing,
	}
}
