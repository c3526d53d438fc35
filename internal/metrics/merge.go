package metrics

import (
	"sort"

	"slinfer/internal/hwsim"
	"slinfer/internal/sim"
)

// MergeReports folds per-shard reports of one fleet run into a single
// aggregate report. The inputs are never mutated.
//
// Counters sum. Everything derived from a sample set the report actually
// carries is exact: the TTFT percentiles, TTFT/memory CDFs, and the
// per-kind memory means are recomputed from the concatenation of the
// shards' sorted sample buffers, so the merged percentiles equal the
// percentiles of the pooled samples (pinned by TestMergeReportsPercentiles),
// and the batch histograms add bucket by bucket.
// Node usage sums (each shard owns disjoint nodes) and decode speed is the
// activity-weighted mean — exact, because active node-seconds reconstruct
// from AvgNodesUsed x duration. The remaining means merge exactly from the
// totals every report carries: AvgBatch weights by DecodeIters, MeanKVUtil
// by KVSamples, ScalingOverhead recomputes from summed
// ScalingBusy/InstanceLifetime, and the prefix-cache hit rate from summed
// hit/miss bytes (all pinned by TestMergeReportsExactTotals). Wall-clock overheads (ValidationUS,
// ScheduleUS) measure host time and are not merged, matching their
// exclusion from Canonical.
func MergeReports(system string, duration sim.Duration, reports ...Report) Report {
	r := Report{
		System: system, Duration: duration,
		AvgNodesUsed: map[hwsim.Kind]float64{},
		DecodeSpeed:  map[hwsim.Kind]float64{},
		MemUtilCDF:   map[hwsim.Kind][]float64{},
		MeanMemUtil:  map[hwsim.Kind]float64{},
	}
	decodeAct := map[hwsim.Kind]float64{} // active node-seconds per kind
	var batchSum, kvSum float64
	buckets := 0
	for _, in := range reports {
		buckets = max(buckets, len(in.BatchCDF))
	}
	if buckets > 0 {
		r.BatchCDF = make([]int64, buckets)
	}
	for _, in := range reports {
		r.Total += in.Total
		r.Completed += in.Completed
		r.Met += in.Met
		r.Dropped += in.Dropped
		r.ColdStarts += in.ColdStarts
		r.Reclaims += in.Reclaims
		r.Preemptions += in.Preemptions
		r.Migrations += in.Migrations
		r.Evictions += in.Evictions
		r.KVResizes += in.KVResizes

		r.TTFTCDF = append(r.TTFTCDF, in.TTFTCDF...)
		for b, n := range in.BatchCDF {
			r.BatchCDF[b] += n
		}
		//slinfer:maporder each kind accumulates only its own entries, across reports in order
		for kind, nodes := range in.AvgNodesUsed {
			r.AvgNodesUsed[kind] += nodes
			act := nodes * in.Duration.Seconds()
			decodeAct[kind] += act
			r.DecodeSpeed[kind] += in.DecodeSpeed[kind] * act
		}
		//slinfer:maporder each kind appends only to its own CDF, across reports in order
		for kind, cdf := range in.MemUtilCDF {
			r.MemUtilCDF[kind] = append(r.MemUtilCDF[kind], cdf...)
		}
		batchSum += in.AvgBatch * float64(in.DecodeIters)
		r.DecodeIters += in.DecodeIters
		kvSum += in.MeanKVUtil * float64(in.KVSamples)
		r.KVSamples += in.KVSamples
		r.ScalingBusy += in.ScalingBusy
		r.InstanceLifetime += in.InstanceLifetime
		r.PrefixLookups += in.PrefixLookups
		r.PrefixHits += in.PrefixHits
		r.PrefixHitBytes += in.PrefixHitBytes
		r.PrefixMissBytes += in.PrefixMissBytes
		// Fault counters sum; the fleet-level recovery statistics
		// (GoodputDip, RecoverEpochs) are whole-run properties the fleet
		// sets on the merged report afterwards, not per-shard sums.
		r.FaultEvents += in.FaultEvents
		r.Redriven += in.Redriven
		r.RetryExhausted += in.RetryExhausted
	}
	if r.Total > 0 {
		r.SLORate = float64(r.Met) / float64(r.Total)
	}
	sort.Float64s(r.TTFTCDF)
	r.TTFTP50 = percentile(r.TTFTCDF, 0.50)
	r.TTFTP95 = percentile(r.TTFTCDF, 0.95)
	r.TTFTP99 = percentile(r.TTFTCDF, 0.99)
	if r.DecodeIters > 0 {
		r.AvgBatch = batchSum / float64(r.DecodeIters)
	}
	//slinfer:maporder each kind divides or drops only its own entry
	for kind, act := range decodeAct {
		if act > 0 {
			r.DecodeSpeed[kind] /= act
		} else {
			delete(r.DecodeSpeed, kind)
		}
	}
	//slinfer:maporder each kind sorts and averages only its own CDF
	for kind, cdf := range r.MemUtilCDF {
		sort.Float64s(cdf)
		r.MeanMemUtil[kind] = mean(cdf)
	}
	if r.KVSamples > 0 {
		r.MeanKVUtil = kvSum / float64(r.KVSamples)
	}
	if r.InstanceLifetime > 0 {
		r.ScalingOverhead = r.ScalingBusy.Seconds() / r.InstanceLifetime.Seconds()
	}
	if r.Completed > 0 {
		r.MigrationRate = float64(r.Migrations) / float64(r.Completed)
	}
	if tot := r.PrefixHitBytes + r.PrefixMissBytes; tot > 0 {
		r.PrefixHitRate = float64(r.PrefixHitBytes) / float64(tot)
	}
	return r
}
