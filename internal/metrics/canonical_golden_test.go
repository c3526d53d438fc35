package metrics

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"slinfer/internal/sim"
)

// goldenReport is a hand-built report exercising every unconditional
// Canonical line with easily-recognizable values. Maps are left nil so the
// per-kind lines stay absent and the golden text is compact.
func goldenReport() Report {
	return Report{
		System: "golden", Duration: 60 * sim.Second,
		Total: 10, Completed: 8, Met: 7, Dropped: 2, SLORate: 0.875,
		TTFTP50: 0.25, TTFTP95: 0.5, TTFTP99: 1,
		AvgBatch: 2.5, MeanKVUtil: 0.5, ScalingOverhead: 0.125,
		MigrationRate: 0.0625, ColdStarts: 3, Reclaims: 2, Preemptions: 1,
		Migrations: 1, Evictions: 4, KVResizes: 5,
	}
}

// canonicalGoldenBase is the exact rendering of goldenReport with both
// gated features silent. It pins the byte-level format: any accidental
// change to Canonical breaks every stored golden report, so it must fail
// a test before it reaches one.
const canonicalGoldenBase = `system=golden duration=60.000000s
total=10 completed=8 met=7 dropped=2 slo=0.875000000
ttft p50=0.250000000 p95=0.500000000 p99=1.000000000
ttftcdf n=0 hash=cbf29ce484222325
avgbatch=2.500000000 batchcdf n=0 hash=cbf29ce484222325
kvutil=0.500000000 scaling=0.125000000 migrate=0.062500000
cold=3 reclaim=2 preempt=1 migr=1 evict=4 resize=5
`

// TestCanonicalGoldenGatedOff pins the exact canonical text of a report
// whose prefix-cache and fault counters are all zero: neither gated line
// may appear, and the rest must render byte-for-byte as committed.
func TestCanonicalGoldenGatedOff(t *testing.T) {
	got := goldenReport().Canonical()
	if got != canonicalGoldenBase {
		t.Fatalf("canonical rendering drifted:\n--- got ---\n%s--- want ---\n%s", got, canonicalGoldenBase)
	}
	if strings.Contains(got, "prefix") || strings.Contains(got, "faults") {
		t.Fatalf("gated line rendered for a zero-counter report:\n%s", got)
	}
}

// TestCanonicalGoldenGatedOn pins the prefix and faults lines' exact
// renderings, and checks that enabling them only appends — the shared
// prefix of the report stays byte-identical to the gated-off rendering.
func TestCanonicalGoldenGatedOn(t *testing.T) {
	r := goldenReport()
	r.PrefixLookups, r.PrefixHits = 20, 15
	r.PrefixHitRate = 0.75
	r.PrefixHitBytes, r.PrefixMissBytes = 3072, 1024
	r.FaultEvents, r.Redriven, r.RetryExhausted = 2, 6, 1
	r.GoodputDip, r.RecoverEpochs = 0.5, 9

	got := r.Canonical()
	base := goldenReport().Canonical()
	if !strings.HasPrefix(got, base) {
		t.Fatalf("gated lines disturbed the shared prefix:\n--- got ---\n%s--- base ---\n%s", got, base)
	}
	want := base +
		"prefix lookups=20 hits=15 hitrate=0.750000000 hitbytes=3072 missbytes=1024\n" +
		"faults events=2 redriven=6 exhausted=1 dip=0.500000000 recover_epochs=9\n"
	if got != want {
		t.Fatalf("gated rendering drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestCanonicalGatesOnCountsNotRates checks the gate conditions are the
// activity counters, not derived fields: a report with hits but zero
// lookups (impossible in practice, but the gate must be principled) and
// dip without events stays silent.
func TestCanonicalGatesOnCountsNotRates(t *testing.T) {
	r := goldenReport()
	r.PrefixHitRate = 0.9 // no lookups recorded
	r.GoodputDip = 0.4    // no fault events recorded
	got := r.Canonical()
	if strings.Contains(got, "prefix") || strings.Contains(got, "faults") {
		t.Fatalf("derived fields leaked through the gates:\n%s", got)
	}
}

// TestCanonicalEncodingMatchesFmt pins the strconv renderings Canonical
// hashes to the fmt verbs they replaced, byte for byte: "%.9g" for floats
// and "%d" for ints, over random values and the edge cases (NaN, ±Inf,
// −0, subnormals, extreme magnitudes, integer extremes).
func TestCanonicalEncodingMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	floats := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308,
		math.MaxFloat64, -math.MaxFloat64, 1e21, 1e-7, 123456789, 1234567890, 0.1, 1.0 / 3,
	}
	for i := 0; i < 20000; i++ {
		floats = append(floats,
			math.Float64frombits(rng.Uint64()), // every exponent, NaN payloads
			rng.Float64(),
			rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)))
	}
	var buf []byte
	for _, v := range floats {
		buf = appendFloat(buf[:0], v)
		if want := fmt.Sprintf("%.9g", v); string(buf) != want {
			t.Fatalf("float %b: got %q, want %q", math.Float64bits(v), buf, want)
		}
	}
	ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64}
	for i := 0; i < 20000; i++ {
		ints = append(ints, int64(rng.Uint64()), rng.Int63n(1000))
	}
	for _, v := range ints {
		buf = appendInt(buf[:0], v)
		if want := fmt.Sprintf("%d", v); string(buf) != want {
			t.Fatalf("int: got %q, want %q", buf, want)
		}
	}

	// And the digest over a sample set equals fmt streamed into fnv.
	h := fnv.New64a()
	for _, v := range floats {
		fmt.Fprintf(h, "%.9g,", v)
	}
	var d digest
	if got := d.floats(floats); got != h.Sum64() {
		t.Fatalf("float digest %x, want %x", got, h.Sum64())
	}
}
