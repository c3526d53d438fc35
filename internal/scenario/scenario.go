// Package scenario is the declarative scenario-matrix verification
// subsystem: it composes orthogonal axes — workload shape × trace transform
// × cluster topology × serving system (policy composition) × SLO class ×
// seed × fleet shape (shard count + routing policy) — into a named grid of
// simulation cells, fans the cells across the experiments worker pool, and
// runs every cell with the full internal/invariants suite attached (plus
// the fleet-level checkers on multi-shard cells). A cell passes when its simulation
// completes with zero invariant violations; the grid is the safety net
// every new policy, workload, or transform runs against before the paper's
// golden reports ever see it.
//
// Beyond per-cell invariants, the package checks metamorphic *cross-cell*
// properties (properties.go): relations that must hold between runs —
// determinism, transform identities, replay/live equivalence, keep-alive
// monotonicity — which no single-run oracle can express.
package scenario

import (
	"fmt"
	"strings"

	"slinfer/internal/baseline"
	"slinfer/internal/core"
	"slinfer/internal/experiments"
	"slinfer/internal/faults"
	"slinfer/internal/fleet"
	"slinfer/internal/hwsim"
	"slinfer/internal/invariants"
	"slinfer/internal/metrics"
	"slinfer/internal/model"
	"slinfer/internal/sim"
	"slinfer/internal/slo"
	"slinfer/internal/telemetry"
	"slinfer/internal/workload"
	"slinfer/internal/workload/traceio"
)

// Workload is one point on the workload-shape axis: a named, seeded trace
// generator over a replica population of a base model.
type Workload struct {
	// Name labels the axis value in cell names.
	Name string
	// Base is the catalog model every replica derives from.
	Base model.Model
	// Models is the hosted replica count.
	Models int
	// Minutes is the trace length.
	Minutes float64
	// Generator selects the trace process: "azure" (default), "burstgpt",
	// or "chat" (multi-turn sessions with shared template prefixes — the
	// workload shape prefix-aware KV caching pays on).
	Generator string
	// RPS is the aggregate request rate (burstgpt only).
	RPS float64
	// Dataset is the token-length distribution; zero selects AzureConv.
	Dataset workload.Dataset
}

// Trace generates the workload's models and trace for a seed. An unknown
// Generator is an error, not a panic: a bad axis value must fail its cell,
// never the whole grid run.
func (w Workload) Trace(seed uint64) ([]model.Model, workload.Trace, error) {
	models := model.Replicas(w.Base, w.Models)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	dur := sim.Duration(w.Minutes) * sim.Minute
	switch w.Generator {
	case "", "azure":
		return models, workload.Generate(workload.TraceConfig{
			ModelNames: names, Duration: dur, Dataset: w.Dataset,
			Seed: seed, MaxInput: w.Base.MaxContext,
		}), nil
	case "burstgpt":
		return models, workload.GenerateBurstGPT(workload.BurstGPTConfig{
			ModelNames: names, Duration: dur, RPS: w.RPS, Dataset: w.Dataset,
			Seed: seed, MaxInput: w.Base.MaxContext,
		}), nil
	case "chat":
		return models, workload.GenerateChat(workload.ChatConfig{
			ModelNames: names, Duration: dur, Dataset: w.Dataset,
			Seed: seed, MaxInput: w.Base.MaxContext,
		}), nil
	default:
		return nil, workload.Trace{}, fmt.Errorf("scenario: workload %s: unknown generator %q (want azure, burstgpt, or chat)", w.Name, w.Generator)
	}
}

// Transform is one point on the trace-transform axis: a pure function of
// (trace, seed) applied between generation and replay.
type Transform struct {
	Name  string
	Apply func(tr workload.Trace, seed uint64) workload.Trace
}

// Identity passes the trace through unchanged.
func Identity() Transform {
	return Transform{Name: "identity", Apply: func(tr workload.Trace, _ uint64) workload.Trace { return tr }}
}

// RateScaled scales offered load by factor via traceio.ScaleRate.
func RateScaled(factor float64) Transform {
	return Transform{
		Name: fmt.Sprintf("rate%.2gx", factor),
		Apply: func(tr workload.Trace, seed uint64) workload.Trace {
			return traceio.ScaleRate(tr, factor, seed)
		},
	}
}

// TimeCompressed speeds the trace up by factor via traceio.CompressTime.
func TimeCompressed(factor float64) Transform {
	return Transform{
		Name: fmt.Sprintf("compress%.2gx", factor),
		Apply: func(tr workload.Trace, _ uint64) workload.Trace {
			return traceio.CompressTime(tr, factor)
		},
	}
}

// Topology is one point on the cluster-topology axis.
type Topology struct {
	Name     string
	CPU, GPU int
}

// Specs returns the node specs for this topology.
func (t Topology) Specs() []hwsim.NodeSpec { return hwsim.Testbed(t.CPU, t.GPU) }

// SLOClass is one point on the SLO axis: how a request's objective derives
// from its input length. A nil Objective selects the paper's default.
type SLOClass struct {
	Name      string
	Objective func(inputLen int) slo.Objective
}

// DefaultSLO is the paper's TTFT/TPOT formula.
func DefaultSLO() SLOClass { return SLOClass{Name: "default"} }

// TightSLO keeps the TTFT formula but tightens TPOT (§IV-A2).
func TightSLO(tpot sim.Duration) SLOClass {
	return SLOClass{
		Name:      fmt.Sprintf("tight%.0fms", tpot.Milliseconds()),
		Objective: func(inputLen int) slo.Objective { return slo.Tight(inputLen, tpot) },
	}
}

// FleetAxis is one point on the fleet axis: how many controller shards the
// cell's topology is replicated into and which front-door routing policy
// distributes arrivals across them. The zero value (and Shards <= 1) runs
// the classic single-controller path.
type FleetAxis struct {
	// Name labels the axis value in cell names; empty renders "1shard".
	Name string
	// Shards is the fleet size; every shard gets the cell topology.
	Shards int
	// Routing names a fleet.RoutingByName policy; empty is round-robin.
	Routing string
	// Chaos names a faults.Preset injected on the cell's timeline, seeded
	// from the cell seed; empty runs fault-free. Ignored on single-shard
	// cells (presets are empty below 2 shards).
	Chaos string
}

func (f FleetAxis) name() string {
	if f.Name != "" {
		return f.Name
	}
	if f.Shards <= 1 {
		return "1shard"
	}
	// Unnamed multi-shard axis values derive a label from their
	// coordinates so distinct values never collide in cell names.
	r := f.Routing
	if r == "" {
		r = "rr"
	}
	if f.Chaos != "" {
		return fmt.Sprintf("f%d%s+%s", f.Shards, r, f.Chaos)
	}
	return fmt.Sprintf("f%d%s", f.Shards, r)
}

// Grid is a declarative scenario matrix: the cross product of its axes.
// Every axis must have at least one value; an empty Fleets axis means the
// single-controller default.
type Grid struct {
	Name       string
	Workloads  []Workload
	Transforms []Transform
	Topologies []Topology
	// Systems are preset names resolved by baseline.ByName.
	Systems []string
	SLOs    []SLOClass
	Seeds   []uint64
	// Fleets is the fleet-size x routing axis; empty defaults to one
	// single-shard value.
	Fleets []FleetAxis
}

// fleetAxes returns the fleet axis with the single-shard default applied.
func (g Grid) fleetAxes() []FleetAxis {
	if len(g.Fleets) == 0 {
		return []FleetAxis{{}}
	}
	return g.Fleets
}

// Size returns the cell count of the full cross product.
func (g Grid) Size() int {
	return len(g.Workloads) * len(g.Transforms) * len(g.Topologies) *
		len(g.Systems) * len(g.SLOs) * len(g.Seeds) * len(g.fleetAxes())
}

// Cells expands the grid into its cells in a fixed axis-major order
// (workload, transform, topology, system, SLO, seed, fleet), so cell
// indices are stable across runs.
func (g Grid) Cells() []Cell {
	cells := make([]Cell, 0, g.Size())
	for _, w := range g.Workloads {
		for _, tf := range g.Transforms {
			for _, topo := range g.Topologies {
				for _, sys := range g.Systems {
					for _, sc := range g.SLOs {
						for _, seed := range g.Seeds {
							for _, fl := range g.fleetAxes() {
								cells = append(cells, Cell{
									Workload: w, Transform: tf, Topology: topo,
									System: sys, SLO: sc, Seed: seed, Fleet: fl,
								})
							}
						}
					}
				}
			}
		}
	}
	return cells
}

// Cell is one point of the matrix: a fully specified simulation.
type Cell struct {
	Workload  Workload
	Transform Transform
	Topology  Topology
	System    string
	SLO       SLOClass
	Seed      uint64
	Fleet     FleetAxis
	// Telemetry, when non-nil, is this cell's observability sink
	// (internal/telemetry): single-shard cells record on Recorder(0),
	// fleet cells thread the whole Trace through fleet.Config.Telemetry.
	// Not an axis — it never appears in Name() and never changes the
	// cell's report. Each opted-in cell needs its own Trace: cells fan
	// out across the worker pool, and a Trace is single-writer per
	// recorder.
	Telemetry *telemetry.Trace
}

// Name renders the cell's coordinates: one value per axis, slash-separated.
func (c Cell) Name() string {
	return strings.Join([]string{
		c.Workload.Name, c.Transform.Name, c.Topology.Name,
		c.System, c.SLO.Name, fmt.Sprintf("s%d", c.Seed), c.Fleet.name(),
	}, "/")
}

// CellResult is one cell's outcome.
type CellResult struct {
	Cell   Cell
	Report metrics.Report
	// Violations are the invariant breaches detected during the run.
	Violations []invariants.Violation
	// Err is a setup failure (unknown system, invalid transformed trace);
	// the cell did not run.
	Err error
}

// Ok reports whether the cell ran cleanly.
func (r CellResult) Ok() bool { return r.Err == nil && len(r.Violations) == 0 }

// config resolves the cell's serving system and SLO class.
func (c Cell) config() (core.Config, error) {
	cfg, ok := baseline.ByName(c.System)
	if !ok {
		return core.Config{}, fmt.Errorf("scenario: unknown system %q", c.System)
	}
	cfg.SLO = c.SLO.Objective
	return cfg, nil
}

// RunCell executes one cell with the invariant suite attached. A cell with
// a multi-shard fleet axis runs the fleet path: the topology is replicated
// per shard behind the named routing policy, every shard carries its own
// suite, and the fleet-level checkers (request conservation, epoch clock)
// report into the same violation list.
func RunCell(c Cell) CellResult {
	cfg, err := c.config()
	if err != nil {
		return CellResult{Cell: c, Err: err}
	}
	models, tr, err := c.Workload.Trace(c.Seed)
	if err != nil {
		return CellResult{Cell: c, Err: err}
	}
	tr = c.Transform.Apply(tr, c.Seed)
	if err := tr.Validate(); err != nil {
		return CellResult{Cell: c, Err: fmt.Errorf("scenario: %s: transformed trace invalid: %w", c.Name(), err)}
	}
	if c.Fleet.Shards > 1 {
		return runFleetCell(c, cfg, models, tr)
	}
	if c.Telemetry != nil {
		cfg.Telemetry = c.Telemetry.Recorder(0)
	}
	rep, viol := runTrace(cfg, c.Topology, models, tr)
	return CellResult{Cell: c, Report: rep, Violations: viol}
}

// runFleetCell runs the cell's trace through an N-shard fleet. Workers is
// pinned to 1: the cell itself already runs inside the experiments worker
// pool, where a fleet's spinning helpers would take CPU time from the
// other cells; fleet results are worker-count-independent anyway.
func runFleetCell(c Cell, cfg core.Config, models []model.Model, tr workload.Trace) CellResult {
	routing, err := fleet.RoutingByName(c.Fleet.Routing)
	if err != nil {
		return CellResult{Cell: c, Err: fmt.Errorf("scenario: %s: %w", c.Name(), err)}
	}
	var plan *faults.Plan
	if c.Fleet.Chaos != "" {
		plan = faults.Preset(c.Fleet.Chaos, c.Fleet.Shards, tr.Duration, int64(c.Seed))
		if plan == nil {
			return CellResult{Cell: c, Err: fmt.Errorf("scenario: %s: unknown chaos preset %q (have %v)",
				c.Name(), c.Fleet.Chaos, faults.PresetNames)}
		}
	}
	res := fleet.Run(fleet.Config{
		System:           cfg,
		Shards:           fleet.UniformShards(c.Fleet.Shards, c.Topology.CPU, c.Topology.GPU),
		Models:           models,
		Routing:          routing,
		Workers:          1,
		Seed:             c.Seed,
		AttachInvariants: true,
		Faults:           plan,
		Telemetry:        c.Telemetry,
	}, tr)
	viol := append([]invariants.Violation(nil), res.Violations...)
	for _, vs := range res.ShardViolations {
		viol = append(viol, vs...)
	}
	return CellResult{Cell: c, Report: res.Report, Violations: viol}
}

// violationsErr summarizes an invariant-violation list as an error, nil when
// clean — the property checkers' counterpart to invariants.Suite.Err, usable
// after the suite itself has been released with its arena.
func violationsErr(viol []invariants.Violation) error {
	if len(viol) == 0 {
		return nil
	}
	return fmt.Errorf("invariants: %d violation(s), first: %s", len(viol), viol[0])
}

// runTrace is the shared single-run core: borrow a pooled arena, attach the
// invariant suite, run, and extract the violations before the arena (and
// with it the controller the suite watches) goes back to the pool.
func runTrace(cfg core.Config, topo Topology, models []model.Model, tr workload.Trace) (metrics.Report, []invariants.Violation) {
	a := core.AcquireArena()
	defer a.Release()
	ctl := a.NewController(topo.Specs(), models, cfg)
	suite := invariants.Attach(ctl)
	rep := ctl.Run(tr)
	return rep, suite.Violations()
}

// RunGrid expands the grid and evaluates every cell through the experiments
// worker pool (bounded, results in cell order). Each cell owns its
// simulator and suite, so the fan-out is embarrassingly parallel.
func RunGrid(g Grid) []CellResult {
	cells := g.Cells()
	return experiments.RunCells(len(cells), func(i int) CellResult { return RunCell(cells[i]) })
}
