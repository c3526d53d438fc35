package kvcache

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestTransferTimeCalibration(t *testing.T) {
	// ~26 GB/s effective PCIe: promoting 1 GB takes 38 ms.
	if got := PromoteTime(1e9).Seconds(); got < 0.035 || got > 0.041 {
		t.Errorf("PromoteTime(1GB) = %.3f s, want ~0.038", got)
	}
	if got := SpillTime(1e9).Seconds(); got < 0.039 || got > 0.045 {
		t.Errorf("SpillTime(1GB) = %.3f s, want ~0.042", got)
	}
	if PromoteTime(0) != 0 || SpillTime(-5) != 0 {
		t.Error("non-positive transfers must be free")
	}
}

func TestTieredConfigDefaults(t *testing.T) {
	var off TieredConfig
	if off.WithDefaults() != off {
		t.Error("disabled config must stay zero")
	}
	on := TieredConfig{Enabled: true}.WithDefaults()
	if on.GPUBytes != 4<<30 || on.CPUBytes != 16<<30 || on.BlockTokens != DefaultBlockTokens {
		t.Errorf("defaults = %+v", on)
	}
}

func TestSegmentOwner(t *testing.T) {
	cases := []struct {
		key  string
		tok  int
		want string
	}{
		{"sess7", 0, "sess7"},
		{"sess7", 9999, "sess7"},
		{"tpl3@512/sess17", 0, "tpl3@512"},
		{"tpl3@512/sess17", 511, "tpl3@512"},
		{"tpl3@512/sess17", 512, "tpl3@512/sess17"},
		{"tpl3@512/sess17", 4096, "tpl3@512/sess17"},
		{"a@16/b@16/c", 15, "a@16"},
		{"a@16/b@16/c", 20, "a@16/b@16"},
		{"a@16/b@16/c", 32, "a@16/b@16/c"},
		{"a@0/b", 0, "a@0/b"},
		{"tpl@32/", 31, "tpl@32"},
		{"tpl@32/", 32, "tpl@32/"},
	}
	for _, c := range cases {
		cur := newSegCursor(c.key)
		cur.ownerHash(c.tok)
		if got := c.key[:cur.end]; got != c.want {
			t.Errorf("owner(%q, %d) = %q, want %q", c.key, c.tok, got, c.want)
		}
	}
}

// randomKey draws a PrefixKey from an alphabet dense in separators, bounds,
// and digits, so empty segments, "@" without digits, several "@" in one
// segment, and trailing "/" all occur.
func randomKey(rng *rand.Rand) string {
	const alphabet = "ab/@@0123456789"
	b := make([]byte, 1+rng.Intn(14))
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// TestSegCursorMatchesReference walks one cursor per random key over every
// token in [0, 600) and holds its owner to refOwner and its incremental
// hash to a from-scratch FNV of the owner.
func TestSegCursorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := []string{"a@16/b@16/c", "a@0/b", "tpl0@64/", "/", "@/@5/x", "tpl3@512/sess17"}
	for i := 0; i < 2000; i++ {
		keys = append(keys, randomKey(rng))
	}
	for _, key := range keys {
		cur := newSegCursor(key)
		for tok := 0; tok < 600; tok++ {
			h := cur.ownerHash(tok)
			got, want := key[:cur.end], refOwner(key, tok)
			if got != want {
				t.Fatalf("owner(%q, %d) = %q, want %q", key, tok, got, want)
			}
			if h != fnvString(fnvOffset64, want) {
				t.Fatalf("owner(%q, %d): cursor hash %x != FNV of %q", key, tok, h, want)
			}
		}
	}
}

// TestBlockTableVsMap drives the open-addressing index and a Go map through
// the same random put/get/delete stream. Keys are drawn so their home slots
// crowd the top of small tables — probe runs wrap past the last slot and
// backward-shift deletion moves entries across the wrap — and a growth
// phase takes the table through several doublings and back down.
func TestBlockTableVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var tab blockTable
	ref := map[uint64]*tierBlock{}
	var live []uint64
	wrapped := 0 // slot observations of keys stored below their home slot
	check := func(op int, key uint64) {
		if got, want := tab.get(key), ref[key]; got != want {
			t.Fatalf("op %d: get(%x) = %p, want %p", op, key, got, want)
		}
	}
	const ops = 120000
	for op := 0; op < ops; op++ {
		// Phase by op: hold the table near its first size, then grow it to
		// a few thousand keys, then drain.
		target := 20
		switch {
		case op >= ops/2 && op < 3*ops/4:
			target = 4000
		case op >= 3*ops/4:
			target = 0
		}
		var key uint64
		if len(ref) > 0 && rng.Intn(3) == 0 {
			key = live[rng.Intn(len(live))]
		} else {
			// High bits random; low bits in the top eighth of a
			// minTableSlots table.
			key = rng.Uint64()&^uint64(minTableSlots-1) | uint64(minTableSlots-1-rng.Intn(minTableSlots/8))
		}
		grow := len(ref) < target
		if rng.Intn(4) == 0 {
			grow = !grow
		}
		_, present := ref[key]
		switch {
		case grow && !present:
			b := &tierBlock{hash: key}
			tab.put(key, b)
			ref[key] = b
			live = append(live, key)
		case !grow:
			tab.del(key) // a no-op when absent
			if present {
				delete(ref, key)
				for i, k := range live {
					if k == key {
						live[i] = live[len(live)-1]
						live = live[:len(live)-1]
						break
					}
				}
			}
		}
		check(op, key)
		if tab.n != len(ref) {
			t.Fatalf("op %d: table holds %d keys, map %d", op, tab.n, len(ref))
		}
		if op%1000 == 0 {
			for k := range ref {
				check(op, k)
			}
		}
		if len(tab.slots) == minTableSlots {
			for i, sl := range tab.slots {
				if sl.b != nil && uint64(i) < sl.key&tab.mask {
					wrapped++
				}
			}
		}
	}
	if wrapped == 0 {
		t.Fatal("no probe run wrapped past the last slot")
	}
	if len(tab.slots) <= minTableSlots {
		t.Fatalf("table never grew past %d slots", len(tab.slots))
	}
}

func TestPrefixRoot(t *testing.T) {
	if PrefixRoot("tpl3@512/sess17") != "tpl3@512" || PrefixRoot("sess7") != "sess7" {
		t.Error("PrefixRoot wrong")
	}
}

func TestTieredStoreBasicSharing(t *testing.T) {
	const kvb = 1 << 20 // 1 MiB per token
	s := NewTieredStore(TieredConfig{Enabled: true, GPUBytes: 1 << 40, CPUBytes: 1 << 40, BlockTokens: 16})

	// Cold lookup misses and counts as such.
	hit, xfer := s.Lookup("m", "tplA@64/sess1", 128, kvb)
	if hit != 0 || xfer != 0 {
		t.Fatalf("cold lookup hit %d tokens", hit)
	}
	// Session 1 completes a 128+32 context; the next turn shares all of it.
	s.Insert("m", "tplA@64/sess1", 160, kvb)
	hit, xfer = s.Lookup("m", "tplA@64/sess1", 200, kvb)
	if hit != 160 || xfer != 0 {
		t.Fatalf("warm same-session lookup hit %d tokens (xfer %v), want 160", hit, xfer)
	}
	// A different session under the same template shares only the 64
	// template tokens.
	hit, _ = s.Lookup("m", "tplA@64/sess2", 128, kvb)
	if hit != 64 {
		t.Fatalf("cross-session lookup hit %d tokens, want 64", hit)
	}
	// A different template shares nothing; a different model shares nothing.
	if hit, _ = s.Lookup("m", "tplB@64/sess3", 128, kvb); hit != 0 {
		t.Fatalf("cross-template lookup hit %d tokens, want 0", hit)
	}
	if hit, _ = s.Lookup("m2", "tplA@64/sess1", 128, kvb); hit != 0 {
		t.Fatalf("cross-model lookup hit %d tokens, want 0", hit)
	}
	// The chain seed (model name) and the owner hash (key) are both FNV
	// hashes: model "k" with key "k" must not meet model "j" with key "j".
	s.Insert("k", "k", 64, kvb)
	if hit, _ = s.Lookup("j", "j", 64, kvb); hit != 0 {
		t.Fatalf("model j / key j hit %d tokens of model k / key k, want 0", hit)
	}
	if !s.Ledger.Conserved() {
		t.Fatalf("ledger not conserved: %+v", s.Ledger)
	}
}

func TestTieredStoreSpillAndPromote(t *testing.T) {
	const kvb = 1 << 20
	const block = 16 * kvb
	// GPU holds 4 blocks, CPU holds 4 more.
	s := NewTieredStore(TieredConfig{Enabled: true, GPUBytes: 4 * block, CPUBytes: 4 * block, BlockTokens: 16})

	s.Insert("m", "sessA", 64, kvb) // 4 blocks fill the GPU tier
	if s.Ledger.GPUBytes != 4*block || s.Ledger.Spills != 0 {
		t.Fatalf("after fill: %+v", s.Ledger)
	}
	s.Insert("m", "sessB", 32, kvb) // 2 blocks spill sessA's coldest 2
	if s.Ledger.Spills != 2 || s.Ledger.CPUBytes != 2*block || s.Ledger.GPUBytes != 4*block {
		t.Fatalf("after spill: %+v", s.Ledger)
	}
	// LRU spilled sessA blocks 0,1 (pushed first, never refreshed) to the
	// host tier. Walking sessA again promotes block 0, which spills the
	// then-coldest GPU blocks (sessA 2,3) — so all 4 blocks end up served
	// through the CPU tier on this pass. Deterministic, and pinned here.
	hit, xfer := s.Lookup("m", "sessA", 64, kvb)
	if hit != 64 {
		t.Fatalf("sessA lookup hit %d tokens, want 64", hit)
	}
	if s.Ledger.CPUHitBytes != 4*block || s.Ledger.PromotedBytes != 4*block || xfer != PromoteTime(4*block) {
		t.Fatalf("promotion: cpuHit=%d promoted=%d xfer=%v", s.Ledger.CPUHitBytes, s.Ledger.PromotedBytes, xfer)
	}
	if !s.Ledger.Conserved() {
		t.Fatalf("ledger not conserved: %+v", s.Ledger)
	}
	gpu, cpu := s.TierUsage()
	if gpu != s.Ledger.GPUBytes || cpu != s.Ledger.CPUBytes {
		t.Fatalf("usage walk (%d, %d) != ledger (%d, %d)", gpu, cpu, s.Ledger.GPUBytes, s.Ledger.CPUBytes)
	}
}

func TestTieredStoreEviction(t *testing.T) {
	const kvb = 1 << 20
	const block = 16 * kvb
	s := NewTieredStore(TieredConfig{Enabled: true, GPUBytes: 2 * block, CPUBytes: 2 * block, BlockTokens: 16})
	// 6 blocks through a 4-block store: 2 must be freed.
	s.Insert("m", "sessA", 32, kvb)
	s.Insert("m", "sessB", 32, kvb)
	s.Insert("m", "sessC", 32, kvb)
	l := s.Ledger
	if l.Evictions != 2 || l.FreedBytes != 2*block {
		t.Fatalf("evictions: %+v", l)
	}
	if !l.Conserved() {
		t.Fatalf("ledger not conserved: %+v", l)
	}
	// The oldest session is gone entirely.
	if hit, _ := s.Lookup("m", "sessA", 32, kvb); hit != 0 {
		t.Fatalf("evicted session still hits %d tokens", hit)
	}
	// No-CPU config frees spills directly.
	s2 := NewTieredStore(TieredConfig{Enabled: true, GPUBytes: 2 * block, CPUBytes: -1, BlockTokens: 16})
	s2.Insert("m", "sessA", 32, kvb)
	s2.Insert("m", "sessB", 32, kvb)
	if s2.Ledger.Spills != 0 || s2.Ledger.Evictions != 2 || s2.Ledger.CPUBytes != 0 {
		t.Fatalf("tierless spill: %+v", s2.Ledger)
	}
}

func TestTieredStoreResidency(t *testing.T) {
	const kvb = 1 << 20
	const block = 16 * kvb
	s := NewTieredStore(TieredConfig{Enabled: true, GPUBytes: 1 << 40, CPUBytes: 1 << 40, BlockTokens: 16})
	s.Insert("m", "tplA@32/sess1", 64, kvb)
	s.Insert("m", "tplB@32/sess2", 32, kvb)
	got := s.AppendResidency(nil)
	want := []RootResidency{{Root: "tplA@32", Bytes: 4 * block}, {Root: "tplB@32", Bytes: 2 * block}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("residency = %v, want %v", got, want)
	}
}

// --- Reference model for the property test ------------------------------
//
// refStore mirrors the tiered store with naive data structures: block
// identities are explicit strings (the full (owner, index) chain), tiers
// are ordered slices, and every LRU/spill/evict rule is restated
// independently. Divergence on any operation is a bug in one of them.

type refBlock struct {
	id    string
	bytes int64
	root  string
}

type refStore struct {
	cfg      TieredConfig
	gpu, cpu []refBlock // front = most recently used
	ledger   TierLedger
}

func newRefStore(cfg TieredConfig) *refStore {
	return &refStore{cfg: cfg.WithDefaults()}
}

// refOwner restates the segment cursor's owner rule with strings.Split.
func refOwner(key string, tok int) string {
	segs := strings.Split(key, "/")
	covered := 0
	for k, seg := range segs {
		tokens := -1
		if at := strings.IndexByte(seg, '@'); at >= 0 {
			tokens = 0
			for _, d := range seg[at+1:] {
				if d >= '0' && d <= '9' {
					tokens = tokens*10 + int(d-'0')
				}
			}
		}
		if tokens < 0 || tok < covered+tokens || k == len(segs)-1 {
			return strings.Join(segs[:k+1], "/")
		}
		covered += tokens
	}
	return key
}

func refID(modelName, key string, blockIdx, blockTokens int) string {
	var sb strings.Builder
	sb.WriteString(modelName)
	for j := 0; j <= blockIdx; j++ {
		fmt.Fprintf(&sb, "|%s#%d", refOwner(key, j*blockTokens), j)
	}
	return sb.String()
}

func (r *refStore) find(id string) (tier *[]refBlock, idx int) {
	for i := range r.gpu {
		if r.gpu[i].id == id {
			return &r.gpu, i
		}
	}
	for i := range r.cpu {
		if r.cpu[i].id == id {
			return &r.cpu, i
		}
	}
	return nil, -1
}

func (r *refStore) bytes(tier []refBlock) int64 {
	var n int64
	for _, b := range tier {
		n += b.bytes
	}
	return n
}

func remove(tier *[]refBlock, i int) refBlock {
	b := (*tier)[i]
	*tier = append((*tier)[:i], (*tier)[i+1:]...)
	return b
}

func pushFront(tier *[]refBlock, b refBlock) {
	*tier = append([]refBlock{b}, *tier...)
}

func (r *refStore) makeGPURoom(need int64) {
	for r.bytes(r.gpu)+need > r.cfg.GPUBytes && len(r.gpu) > 0 {
		victim := remove(&r.gpu, len(r.gpu)-1)
		r.ledger.GPUBytes -= victim.bytes
		if r.cfg.CPUBytes > 0 && victim.bytes <= r.cfg.CPUBytes {
			r.makeCPURoom(victim.bytes)
			pushFront(&r.cpu, victim)
			r.ledger.CPUBytes += victim.bytes
			r.ledger.Spills++
			r.ledger.SpillBytes += victim.bytes
		} else {
			r.ledger.FreedBytes += victim.bytes
			r.ledger.Evictions++
		}
	}
}

func (r *refStore) makeCPURoom(need int64) {
	for r.bytes(r.cpu)+need > r.cfg.CPUBytes && len(r.cpu) > 0 {
		victim := remove(&r.cpu, len(r.cpu)-1)
		r.ledger.CPUBytes -= victim.bytes
		r.ledger.FreedBytes += victim.bytes
		r.ledger.Evictions++
	}
}

func (r *refStore) Lookup(modelName, key string, inputTokens int, kvb int64) (hitTokens int) {
	if key == "" || inputTokens <= 0 {
		return 0
	}
	bt := r.cfg.BlockTokens
	var promoted int64
	for i := 0; i < inputTokens/bt; i++ {
		tier, idx := r.find(refID(modelName, key, i, bt))
		if tier == nil {
			break
		}
		b := remove(tier, idx)
		if tier == &r.cpu {
			promoted += b.bytes
			if b.bytes > r.cfg.GPUBytes {
				pushFront(&r.cpu, b)
			} else {
				r.ledger.CPUBytes -= b.bytes
				r.makeGPURoom(b.bytes)
				pushFront(&r.gpu, b)
				r.ledger.GPUBytes += b.bytes
				r.ledger.PromotedBytes += b.bytes
			}
		} else {
			pushFront(&r.gpu, b)
		}
		hitTokens += bt
	}
	r.ledger.Lookups++
	if hitTokens > 0 {
		r.ledger.Hits++
	}
	r.ledger.HitBytes += int64(hitTokens) * kvb
	r.ledger.MissBytes += int64(inputTokens-hitTokens) * kvb
	r.ledger.CPUHitBytes += promoted
	return hitTokens
}

func (r *refStore) Insert(modelName, key string, contextTokens int, kvb int64) {
	if key == "" || contextTokens <= 0 {
		return
	}
	bt := r.cfg.BlockTokens
	blockBytes := int64(bt) * kvb
	for i := 0; i < contextTokens/bt; i++ {
		id := refID(modelName, key, i, bt)
		if tier, idx := r.find(id); tier != nil {
			b := remove(tier, idx)
			pushFront(tier, b)
			continue
		}
		if blockBytes > r.cfg.GPUBytes {
			continue
		}
		r.makeGPURoom(blockBytes)
		pushFront(&r.gpu, refBlock{id: id, bytes: blockBytes, root: PrefixRoot(key)})
		r.ledger.AllocatedBytes += blockBytes
		r.ledger.GPUBytes += blockBytes
		r.ledger.Inserts++
	}
}

// residency restates AppendResidency: resident bytes per root, sorted by
// root, zero-byte roots omitted.
func (r *refStore) residency() []RootResidency {
	bytes := map[string]int64{}
	for _, b := range append(append([]refBlock(nil), r.gpu...), r.cpu...) {
		bytes[b.root] += b.bytes
	}
	var out []RootResidency
	for root, n := range bytes {
		out = append(out, RootResidency{Root: root, Bytes: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Root < out[j].Root })
	return out
}

// refOrder renders a reference tier front to back as (root, bytes) pairs.
func refOrder(tier []refBlock) string {
	var sb strings.Builder
	for _, b := range tier {
		fmt.Fprintf(&sb, "(%s,%d)", b.root, b.bytes)
	}
	return sb.String()
}

// lruOrder renders one of the store's tiers the way refOrder does.
func (s *TieredStore) lruOrder(l *tierList) string {
	var sb strings.Builder
	for b := l.front; b != nil; b = b.next {
		fmt.Fprintf(&sb, "(%s,%d)", s.roots[b.root], b.bytes)
	}
	return sb.String()
}

// TestTieredStorePropertyVsReference drives the real store and the naive
// reference through the same seeded operation stream and demands identical
// hit counts, ledgers, tier usage, per-root residency, and each tier's
// exact LRU order after every step — and identical
// ledgers across a second run with the same seed (determinism).
func TestTieredStorePropertyVsReference(t *testing.T) {
	run := func(seed int64) TierLedger {
		const kvb = 1 << 10
		const block = int64(16) * kvb
		cfg := TieredConfig{Enabled: true, GPUBytes: 6 * block, CPUBytes: 4 * block, BlockTokens: 16}
		s := NewTieredStore(cfg)
		ref := newRefStore(cfg)
		rng := rand.New(rand.NewSource(seed))
		models := []string{"llama", "mistral", "k", "j"}
		keys := []string{
			"tpl0@64/sess0", "tpl0@64/sess1", "tpl0@64/sess2",
			"tpl1@32/sess3", "tpl1@32/sess4",
			"sess5", "sess6", "",
			"a@16/b@16/c", "a@0/b", "tpl1@32/", "k", "j",
		}
		for step := 0; step < 2000; step++ {
			m := models[rng.Intn(len(models))]
			key := keys[rng.Intn(len(keys))]
			tokens := rng.Intn(300)
			if rng.Intn(2) == 0 {
				got, _ := s.Lookup(m, key, tokens, kvb)
				want := ref.Lookup(m, key, tokens, kvb)
				if got != want {
					t.Fatalf("step %d: Lookup(%s, %q, %d) = %d, ref %d", step, m, key, tokens, got, want)
				}
			} else {
				s.Insert(m, key, tokens, kvb)
				ref.Insert(m, key, tokens, kvb)
			}
			if s.Ledger != ref.ledger {
				t.Fatalf("step %d: ledger diverged\n store: %+v\n   ref: %+v", step, s.Ledger, ref.ledger)
			}
			if !s.Ledger.Conserved() {
				t.Fatalf("step %d: conservation broken: %+v", step, s.Ledger)
			}
			gpu, cpu := s.TierUsage()
			if gpu != s.Ledger.GPUBytes || cpu != s.Ledger.CPUBytes {
				t.Fatalf("step %d: usage walk (%d, %d) != ledger (%d, %d)", step, gpu, cpu, s.Ledger.GPUBytes, s.Ledger.CPUBytes)
			}
			if gpu > cfg.GPUBytes || cpu > cfg.CPUBytes {
				t.Fatalf("step %d: capacity exceeded gpu=%d cpu=%d", step, gpu, cpu)
			}
			if got, want := fmt.Sprint(s.AppendResidency(nil)), fmt.Sprint(ref.residency()); got != want {
				t.Fatalf("step %d: residency %s, ref %s", step, got, want)
			}
			for _, tier := range []struct {
				name string
				list *tierList
				ref  []refBlock
			}{{"gpu", &s.gpu, ref.gpu}, {"cpu", &s.cpu, ref.cpu}} {
				if got, want := s.lruOrder(tier.list), refOrder(tier.ref); got != want {
					t.Fatalf("step %d: %s LRU order\n store: %s\n   ref: %s", step, tier.name, got, want)
				}
			}
		}
		return s.Ledger
	}
	for _, seed := range []int64{1, 7, 42} {
		a, b := run(seed), run(seed)
		if a != b {
			t.Fatalf("seed %d: two runs diverged:\n%+v\n%+v", seed, a, b)
		}
	}
}

// Reset must behave exactly like a fresh store, and keep its capacity:
// blocks go to the free list and the index keeps its slots, so refilling
// the same working set allocates nothing.
func TestTieredStoreReset(t *testing.T) {
	cfg := TieredConfig{Enabled: true, GPUBytes: 1 << 30, CPUBytes: 1 << 30, BlockTokens: 16}
	s := NewTieredStore(cfg)
	s.Insert("m", "tpl@32/sessA", 1600, 1<<20)
	slots := len(s.index.slots)
	s.Reset(cfg)
	if len(s.index.slots) != slots || s.free == nil {
		t.Fatalf("reset dropped capacity: %d slots (had %d), free list empty %v", len(s.index.slots), slots, s.free == nil)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		s.Reset(cfg)
		s.Insert("m", "tpl@32/sessA", 1600, 1<<20)
	}); allocs != 0 {
		t.Fatalf("refill after reset allocated %.0f times", allocs)
	}
	s.Reset(cfg)
	if s.Ledger != (TierLedger{}) {
		t.Fatalf("ledger after reset: %+v", s.Ledger)
	}
	if hit, _ := s.Lookup("m", "sessA", 160, 1<<20); hit != 0 {
		t.Fatalf("stale blocks survived reset: hit %d", hit)
	}
	if got := s.AppendResidency(nil); len(got) != 0 {
		t.Fatalf("stale residency after reset: %v", got)
	}
}
