// Trace transformers: one recorded trace yields a family of scenarios.
// Every transformer is a pure function of its inputs (ScaleRate also of an
// explicit seed), returns a fresh trace satisfying workload.Validate, and
// never mutates its argument — so a saved trace can be fanned into rate
// sweeps, time-compressed smoke runs, per-model subsets, and multi-tenant
// merges while the original bytes stay the replayable source of truth.
package traceio

import (
	"fmt"
	"sort"

	"slinfer/internal/sim"
	"slinfer/internal/workload"
)

// ScaleRate changes a trace's offered load by factor while preserving its
// temporal shape. factor < 1 thins requests independently; factor > 1
// superposes jittered replicas (replica arrivals follow the original within
// a few seconds, mirroring within-burst gaps, so burstiness scales with
// load). The result is deterministic in (trace, factor, seed): IDs are
// reassigned densely in arrival order and per-model RPM is scaled.
func ScaleRate(tr workload.Trace, factor float64, seed uint64) workload.Trace {
	out := workload.Trace{Duration: tr.Duration, RPM: scaleRPM(tr.RPM, factor)}
	if factor <= 0 {
		return out
	}
	rng := sim.NewRNG(seed^0x5ca1e4a7e, seed+3)
	keep := rng.Derive("thin")
	jitter := rng.Derive("jitter")
	whole := int(factor)
	frac := factor - float64(whole)
	dur := sim.Time(tr.Duration)
	for _, r := range tr.Requests {
		copies := whole
		if frac > 0 && keep.Float64() < frac {
			copies++
		}
		at := r.Arrival
		for c := 0; c < copies; c++ {
			if c > 0 {
				// Replicas trail the original like burst members trail
				// their burst head.
				at = at.Add(sim.Duration(jitter.Exp(2.0)))
			}
			if at >= dur {
				break
			}
			rep := r
			rep.Arrival = at
			out.Requests = append(out.Requests, rep)
		}
	}
	sortAndRenumber(&out)
	return out
}

// CompressTime speeds a trace up by factor: arrivals and duration shrink
// by factor, so the same requests arrive factor times faster (per-model RPM
// grows by factor). factor <= 0 returns the trace unchanged. factor < 1
// stretches instead.
func CompressTime(tr workload.Trace, factor float64) workload.Trace {
	if factor <= 0 {
		factor = 1
	}
	out := workload.Trace{
		Duration: sim.Duration(tr.Duration.Seconds() / factor),
		RPM:      scaleRPM(tr.RPM, factor),
		Requests: make([]workload.Request, len(tr.Requests)),
	}
	for i, r := range tr.Requests {
		r.Arrival = sim.Time(float64(r.Arrival) / factor)
		out.Requests[i] = r
	}
	return out
}

// SubsetModels keeps only the requests (and RPM entries) of the named
// models, renumbering IDs densely. Duration is unchanged, so the subset
// replays against the original timeline.
func SubsetModels(tr workload.Trace, names ...string) workload.Trace {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := workload.Trace{Duration: tr.Duration, RPM: map[string]float64{}}
	for name, v := range tr.RPM {
		if want[name] {
			out.RPM[name] = v
		}
	}
	var id int64
	for _, r := range tr.Requests {
		if !want[r.ModelName] {
			continue
		}
		r.ID = id
		id++
		out.Requests = append(out.Requests, r)
	}
	return out
}

// Merge superposes traces onto one timeline: requests are merged in arrival
// order, IDs renumbered densely, duration is the longest input's, and RPM
// is recomputed empirically over the merged duration (the inputs' generator
// means need not share a timebase).
func Merge(traces ...workload.Trace) workload.Trace {
	var out workload.Trace
	for _, tr := range traces {
		if tr.Duration > out.Duration {
			out.Duration = tr.Duration
		}
		out.Requests = append(out.Requests, tr.Requests...)
	}
	sortAndRenumber(&out)
	out.RPM = empiricalRPM(out)
	return out
}

// Partition splits a trace into n slices — the inverse of Merge. assign
// maps each request to its slice index; a negative index drops the request
// (how a fleet records shed arrivals), and an index >= n panics (a
// programming error, like an out-of-range shard). Every slice keeps the
// full duration and original arrival order, renumbers IDs densely, and
// carries empirical per-slice RPM — so each slice satisfies
// workload.Validate and replays standalone against the original timeline.
// Merging the slices back restores the original request sequence
// (Merge -> Partition -> Merge is the identity on a Merge-normalized
// trace; pinned by TestPartitionMergeRoundTrip).
func Partition(tr workload.Trace, n int, assign func(workload.Request) int) []workload.Trace {
	if n < 1 {
		panic("traceio: Partition: n must be >= 1")
	}
	// assign runs exactly once per request, in index order (a fleet replays
	// its placements through a position cursor); its answers are kept so
	// each slice is allocated once at its exact size.
	slot := make([]int, len(tr.Requests))
	count := make([]int, n)
	for i, r := range tr.Requests {
		s := assign(r)
		if s >= n {
			panic(fmt.Sprintf("traceio: Partition: assign(%d) = %d, out of range [0, %d)", r.ID, s, n))
		}
		if s >= 0 {
			count[s]++
		}
		slot[i] = s
	}
	out := make([]workload.Trace, n)
	for i := range out {
		out[i].Duration = tr.Duration
		if count[i] > 0 {
			out[i].Requests = make([]workload.Request, 0, count[i])
		}
	}
	for i, r := range tr.Requests {
		if s := slot[i]; s >= 0 {
			r.ID = int64(len(out[s].Requests))
			out[s].Requests = append(out[s].Requests, r)
		}
	}
	for i := range out {
		out[i].RPM = empiricalRPM(out[i])
	}
	return out
}

func scaleRPM(rpm map[string]float64, factor float64) map[string]float64 {
	out := make(map[string]float64, len(rpm))
	for name, v := range rpm {
		out[name] = v * factor
	}
	return out
}

func empiricalRPM(tr workload.Trace) map[string]float64 {
	out := map[string]float64{}
	minutes := tr.Duration.Seconds() / 60
	if minutes <= 0 {
		return out
	}
	counts := map[string]int{}
	for _, r := range tr.Requests {
		counts[r.ModelName]++
	}
	for name, n := range counts {
		out[name] = float64(n) / minutes
	}
	return out
}

// sortAndRenumber restores the trace invariants after a transform: sorted
// arrivals (stable, so equal-time requests keep their pre-sort order) and
// dense unique IDs in arrival order.
func sortAndRenumber(tr *workload.Trace) {
	sort.SliceStable(tr.Requests, func(i, j int) bool {
		return tr.Requests[i].Arrival < tr.Requests[j].Arrival
	})
	for i := range tr.Requests {
		tr.Requests[i].ID = int64(i)
	}
}
