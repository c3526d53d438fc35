package kvcache

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
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
	// Only a negative CPUBytes drops the host tier: spilled blocks are freed.
	const block = 16 << 20
	tierless := TieredConfig{Enabled: true, GPUBytes: 2 * block, CPUBytes: -1}
	if got := tierless.WithDefaults().CPUBytes; got != 0 {
		t.Errorf("CPUBytes -1 defaults to %d, want 0", got)
	}
	s := NewTieredStore(tierless)
	s.Insert("m", "sessA", 64, 1<<20)
	if l := s.Ledger; l.Spills != 0 || l.CPUBytes != 0 || l.Evictions != 2 || l.GPUBytes != 2*block {
		t.Errorf("CPUBytes -1 store spilled instead of freeing: %+v", l)
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

// refIDs memoizes refID: the property test renders every resident block
// after every step.
var refIDs = map[refIDKey]string{}

type refIDKey struct {
	model, key       string
	idx, blockTokens int
}

func refID(modelName, key string, blockIdx, blockTokens int) string {
	k := refIDKey{modelName, key, blockIdx, blockTokens}
	if id, ok := refIDs[k]; ok {
		return id
	}
	var sb strings.Builder
	sb.WriteString(modelName)
	for j := 0; j <= blockIdx; j++ {
		fmt.Fprintf(&sb, "|%s#%d", refOwner(key, j*blockTokens), j)
	}
	refIDs[k] = sb.String()
	return refIDs[k]
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

// SetGPUCapacity restates the store's: a new positive capacity spills the
// GPU tail down to it.
func (r *refStore) SetGPUCapacity(bytes int64) {
	if bytes <= 0 || bytes == r.cfg.GPUBytes {
		return
	}
	r.cfg.GPUBytes = bytes
	r.makeGPURoom(0)
}

// refOrder renders a reference tier front to back as (block id, bytes)
// pairs.
func refOrder(tier []refBlock) string {
	var sb strings.Builder
	for _, b := range tier {
		sb.WriteString("(" + b.id + "," + strconv.FormatInt(b.bytes, 10) + ")")
	}
	return sb.String()
}

// nodeNames maps node keys to a (model, key) pair whose walk reaches the
// node, so a store block renders with the reference's block id.
type nodeNames map[uint64][2]string

// add records every node of (model, key) over its first n blocks. A node
// reached by two pairs must be one block chain: its first block's
// reference ids must agree.
func (nn nodeNames) add(t *testing.T, model, key string, n, bt int) {
	w := newNodeWalk(model, key, n, bt)
	for w.next() {
		if prev, ok := nn[w.key]; ok {
			if a, b := refID(prev[0], prev[1], int(w.lo), bt), refID(model, key, int(w.lo), bt); a != b {
				t.Fatalf("node %x holds %s and %s", w.key, a, b)
			}
			continue
		}
		nn[w.key] = [2]string{model, key}
	}
}

// lruOrder renders one of the store's tiers the way refOrder does: each
// extent front to back, its positions from hi-1 down to lo.
func (s *TieredStore) lruOrder(l *tierList, nn nodeNames) string {
	var sb strings.Builder
	for e := l.front; e != nil; e = e.next {
		name, ok := nn[e.node.key]
		for p := e.hi - 1; p >= e.lo; p-- {
			if !ok {
				fmt.Fprintf(&sb, "(?%x#%d,%d)", e.node.key, p, e.bytes)
				continue
			}
			sb.WriteString("(" + refID(name[0], name[1], int(p), s.cfg.BlockTokens) + "," + strconv.FormatInt(e.bytes, 10) + ")")
		}
	}
	return sb.String()
}

// sameOrder reports whether a store tier holds the reference tier's blocks
// in the same order, as lruOrder and refOrder would render them.
func (s *TieredStore) sameOrder(l *tierList, nn nodeNames, ref []refBlock) bool {
	i := 0
	for e := l.front; e != nil; e = e.next {
		name, ok := nn[e.node.key]
		for p := e.hi - 1; p >= e.lo; p-- {
			if !ok || i == len(ref) || ref[i].bytes != e.bytes || ref[i].id != refID(name[0], name[1], int(p), s.cfg.BlockTokens) {
				return false
			}
			i++
		}
	}
	return i == len(ref)
}

// checkStructure verifies the node and extent lists: in each tier, links
// agree both ways, every extent is non-empty, tagged with the tier, and
// its node is indexed under its key, and the extents' bytes add up to the
// tier's count; each node's list is sorted by lo, disjoint, and holds
// exactly its extents; and every indexed node holds at least one extent.
func (s *TieredStore) checkStructure() error {
	nodes, listed := map[*segNode]bool{}, map[*extent]bool{}
	for _, l := range []*tierList{&s.gpu, &s.cpu} {
		var bytes int64
		var prev *extent
		for e := l.front; e != nil; prev, e = e, e.next {
			if e.prev != prev {
				return fmt.Errorf("extent [%d,%d): prev link broken", e.lo, e.hi)
			}
			if e.lo >= e.hi {
				return fmt.Errorf("empty extent [%d,%d)", e.lo, e.hi)
			}
			if (l == &s.gpu) != (e.tier == tierGPU) {
				return fmt.Errorf("extent [%d,%d) tagged with the other tier", e.lo, e.hi)
			}
			if s.index[e.node.key] != e.node {
				return fmt.Errorf("extent [%d,%d): node %x not indexed", e.lo, e.hi, e.node.key)
			}
			bytes += int64(e.hi-e.lo) * e.bytes
			nodes[e.node] = true
			listed[e] = true
		}
		if l.back != prev {
			return fmt.Errorf("tier back is not its last extent")
		}
		if bytes != l.bytes {
			return fmt.Errorf("tier extents hold %d bytes, tier counts %d", bytes, l.bytes)
		}
	}
	if len(nodes) != len(s.index) {
		return fmt.Errorf("%d indexed nodes, %d hold extents", len(s.index), len(nodes))
	}
	inNodes := 0
	for n := range nodes {
		var prev *extent
		for e := n.ext; e != nil; prev, e = e, e.nnext {
			if e.node != n || !listed[e] {
				return fmt.Errorf("node %x lists [%d,%d), which is another node's or in no tier", n.key, e.lo, e.hi)
			}
			if prev != nil && prev.hi > e.lo {
				return fmt.Errorf("node %x: [%d,%d) then [%d,%d) unsorted or overlapping", n.key, prev.lo, prev.hi, e.lo, e.hi)
			}
			inNodes++
		}
	}
	if inNodes != len(listed) {
		return fmt.Errorf("node lists hold %d extents, tiers %d", inNodes, len(listed))
	}
	return nil
}

// TestTieredStorePropertyVsReference drives the real store and the naive
// per-block reference through the same seeded stream of lookups, inserts
// and GPU capacity changes, and demands identical hit counts, ledgers, tier
// usage, per-root residency, and each tier's exact LRU order of block
// identities after every step, plus a sound node and extent structure, and
// identical ledgers across a second run with the same seed (determinism).
// Models differ in KV bytes per token, and a call now and then doubles its
// model's, so blocks of several sizes share the tiers and even one node,
// and seeds vary the capacities and block granularity: a CPU tier
// off (CPUBytes -1), defaulted, smaller than the GPU tier, and larger.
func TestTieredStorePropertyVsReference(t *testing.T) {
	const unit = int64(16) << 10 // one 16-token block of the 1 KiB/token model
	models := []string{"llama", "mistral", "k", "j"}
	kvb := map[string]int64{"llama": 1 << 10, "mistral": 3 << 9, "k": 1 << 9, "j": 2 << 10}
	keys := []string{
		"tpl0@64/sess0", "tpl0@64/sess1", "tpl0@64/sess2",
		"tpl1@32/sess3", "tpl1@32/sess4",
		"sess5", "sess6", "",
		"a@16/b@16/c", "a@0/b", "tpl1@32/", "k", "j", "a@5/b@40/c",
	}
	const maxTokens = 300
	run := func(seed int64) TierLedger {
		rng := rand.New(rand.NewSource(seed))
		gpuCaps := []int64{unit / 2, unit, 3 * unit / 2, 3 * unit, 6 * unit, 6*unit + unit/2, 12 * unit}
		cpuCaps := []int64{-1, 0, unit, 2*unit + unit/2, 4 * unit, 10 * unit}
		cfg := TieredConfig{
			Enabled:     true,
			GPUBytes:    gpuCaps[1+rng.Intn(len(gpuCaps)-1)],
			CPUBytes:    cpuCaps[rng.Intn(len(cpuCaps))],
			BlockTokens: []int{8, 16, 16, 32}[rng.Intn(4)],
		}
		s := NewTieredStore(cfg)
		ref := newRefStore(cfg)
		bt := s.cfg.BlockTokens
		nn := nodeNames{}
		for _, m := range models {
			for _, key := range keys {
				nn.add(t, m, key, maxTokens/bt, bt)
			}
		}
		for step := 0; step < 1500; step++ {
			m := models[rng.Intn(len(models))]
			key := keys[rng.Intn(len(keys))]
			tokens := rng.Intn(maxTokens)
			kv := kvb[m]
			if rng.Intn(10) == 0 {
				kv *= 2 // a node may hold blocks of two sizes
			}
			switch op := rng.Intn(20); {
			case op == 0:
				c := gpuCaps[rng.Intn(len(gpuCaps))]
				s.SetGPUCapacity(c)
				ref.SetGPUCapacity(c)
			case op < 10:
				got, _ := s.Lookup(m, key, tokens, kv)
				want := ref.Lookup(m, key, tokens, kv)
				if got != want {
					t.Fatalf("seed %d step %d: Lookup(%s, %q, %d) = %d, ref %d", seed, step, m, key, tokens, got, want)
				}
			default:
				s.Insert(m, key, tokens, kv)
				ref.Insert(m, key, tokens, kv)
			}
			if s.Ledger != ref.ledger {
				t.Fatalf("seed %d step %d: ledger diverged\n store: %+v\n   ref: %+v", seed, step, s.Ledger, ref.ledger)
			}
			if !s.Ledger.Conserved() {
				t.Fatalf("seed %d step %d: conservation broken: %+v", seed, step, s.Ledger)
			}
			gpu, cpu := s.TierUsage()
			if gpu != s.Ledger.GPUBytes || cpu != s.Ledger.CPUBytes {
				t.Fatalf("seed %d step %d: usage walk (%d, %d) != ledger (%d, %d)", seed, step, gpu, cpu, s.Ledger.GPUBytes, s.Ledger.CPUBytes)
			}
			if gpu > s.cfg.GPUBytes || cpu > s.cfg.CPUBytes {
				t.Fatalf("seed %d step %d: capacity exceeded gpu=%d cpu=%d", seed, step, gpu, cpu)
			}
			if err := s.checkStructure(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if got, want := fmt.Sprint(s.AppendResidency(nil)), fmt.Sprint(ref.residency()); got != want {
				t.Fatalf("seed %d step %d: residency %s, ref %s", seed, step, got, want)
			}
			for _, tier := range []struct {
				name string
				list *tierList
				ref  []refBlock
			}{{"gpu", &s.gpu, ref.gpu}, {"cpu", &s.cpu, ref.cpu}} {
				if !s.sameOrder(tier.list, nn, tier.ref) {
					t.Fatalf("seed %d step %d: %s LRU order\n store: %s\n   ref: %s", seed, step, tier.name, s.lruOrder(tier.list, nn), refOrder(tier.ref))
				}
			}
		}
		return s.Ledger
	}
	for seed := int64(1); seed <= 120; seed++ {
		a := run(seed)
		if seed%10 == 0 {
			if b := run(seed); a != b {
				t.Fatalf("seed %d: two runs diverged:\n%+v\n%+v", seed, a, b)
			}
		}
	}
}

// Reset must behave exactly like a fresh store, and keep its capacity:
// extents and nodes go to the free lists and the index keeps its room, so
// refilling the same working set allocates nothing.
func TestTieredStoreReset(t *testing.T) {
	cfg := TieredConfig{Enabled: true, GPUBytes: 1 << 30, CPUBytes: 1 << 30, BlockTokens: 16}
	s := NewTieredStore(cfg)
	s.Insert("m", "tpl@32/sessA", 1600, 1<<20)
	s.Reset(cfg)
	if s.freeExt == nil || s.freeNode == nil || len(s.index) != 0 {
		t.Fatalf("reset kept %d nodes indexed or emptied a free list: extents %v, nodes %v", len(s.index), s.freeExt != nil, s.freeNode != nil)
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
