// Prefix-aware tiered KV cache (ROADMAP open item #1). Completed requests
// demote their KV blocks into a shared two-tier pool (GPU-resident, then
// host-spill) instead of dropping them; admission looks the new request's
// prefix up by token-block hash chain and charges prefill only for the
// uncached suffix plus a PCIe promotion cost for host-resident blocks.
//
// The index is a radix chain over token blocks, not tokens: block i of a
// request mixes the previous block's hash, the hash of the owning PrefixKey
// segment, and the block index, so two requests share exactly the leading
// blocks whose key segments and positions agree. PrefixKeys are
// hierarchical — "tpl3@512/sess17" pins the first 512 tokens to template 3
// (shared across every session using it) and the remainder to session 17
// (shared across that conversation's turns).
package kvcache

import "slinfer/internal/sim"

// Tier transfer cost model, calibrated the same way as ScaleTime: an
// effective ~26 GB/s PCIe 4.0 x16 link gives 0.038 s/GB host-to-device;
// device-to-host spills overlap worse with compute and land near 0.042.
const (
	promoteSecPerGB = 0.038
	spillSecPerGB   = 0.042
)

// PromoteTime returns the host-to-device transfer cost of promoting bytes
// from the CPU tier back into GPU memory on a prefix hit.
func PromoteTime(bytes int64) sim.Duration {
	if bytes <= 0 {
		return 0
	}
	return sim.Duration(promoteSecPerGB * float64(bytes) / 1e9)
}

// SpillTime returns the device-to-host cost of demoting bytes to the CPU
// tier. The simulator books it as background copy overhead, not a stall.
func SpillTime(bytes int64) sim.Duration {
	if bytes <= 0 {
		return 0
	}
	return sim.Duration(spillSecPerGB * float64(bytes) / 1e9)
}

// DefaultBlockTokens is the paged-attention block granularity the prefix
// index shares at when TieredConfig.BlockTokens is zero.
const DefaultBlockTokens = 16

// TieredConfig sizes the shared prefix pool. The zero value disables prefix
// sharing entirely (every preset keeps its golden report byte-identical).
type TieredConfig struct {
	// Enabled turns the tiered prefix store on.
	Enabled bool
	// GPUBytes caps the GPU-resident tier.
	GPUBytes int64
	// CPUBytes caps the host spill tier; zero means spilled blocks are
	// freed immediately (no second tier).
	CPUBytes int64
	// BlockTokens is the sharing granularity (default DefaultBlockTokens).
	BlockTokens int
}

// WithDefaults fills zero fields with usable defaults: 4 GiB GPU tier and a
// 4x host tier, 16-token blocks.
func (c TieredConfig) WithDefaults() TieredConfig {
	if !c.Enabled {
		return c
	}
	if c.GPUBytes <= 0 {
		c.GPUBytes = 4 << 30
	}
	if c.CPUBytes < 0 {
		c.CPUBytes = 0
	} else if c.CPUBytes == 0 {
		c.CPUBytes = 4 * c.GPUBytes
	}
	if c.BlockTokens <= 0 {
		c.BlockTokens = DefaultBlockTokens
	}
	return c
}

// TierLedger counts every byte that moves through the tiered store. The
// invariants suite holds it to the conservation law
//
//	AllocatedBytes == GPUBytes + CPUBytes + FreedBytes
//
// after every store call the controller makes, and reconciles the resident
// tiers against a walk of the actual block lists at end of run. The
// lifetime byte counters (SpillBytes, PromotedBytes, FreedBytes) are also
// what tier telemetry reports.
type TierLedger struct {
	// AllocatedBytes is the lifetime total admitted into the store.
	AllocatedBytes int64
	// GPUBytes / CPUBytes are the bytes currently resident in each tier.
	GPUBytes int64
	CPUBytes int64
	// FreedBytes is the lifetime total evicted out of both tiers.
	FreedBytes int64

	// Lookups counts Lookup calls; Hits counts those matching >= 1 block.
	Lookups int64
	Hits    int64
	// HitBytes / MissBytes split each lookup's input bytes by whether the
	// leading blocks were resident.
	HitBytes  int64
	MissBytes int64
	// CPUHitBytes is the subset of HitBytes served from the host tier
	// (each such byte pays PromoteTime).
	CPUHitBytes int64

	// Inserts counts blocks admitted; Spills counts GPU->CPU demotions;
	// Evictions counts blocks freed out of the store.
	Inserts   int64
	Spills    int64
	Evictions int64
	// SpillBytes is the lifetime total demoted GPU->CPU.
	SpillBytes int64
	// PromotedBytes is the lifetime total moved CPU->GPU on hits. It is
	// CPUHitBytes minus the blocks too large for the GPU tier, which are
	// served over PCIe in place.
	PromotedBytes int64
}

// Conserved reports whether the byte-conservation law holds.
func (l TierLedger) Conserved() bool {
	return l.AllocatedBytes == l.GPUBytes+l.CPUBytes+l.FreedBytes
}

// Block tier tags.
const (
	tierGPU = int8(0)
	tierCPU = int8(1)
)

// tierBlock is one resident token block. Blocks live in the hash index and
// on exactly one tier's intrusive LRU list; evicted blocks recycle through
// the store's free list.
type tierBlock struct {
	hash       uint64
	bytes      int64
	tier       int8
	root       int32 // interned leading PrefixKey segment, for residency accounting
	prev, next *tierBlock
}

// tierList is an intrusive doubly-linked LRU list: front is most recently
// used, eviction candidates come off the back.
type tierList struct {
	front, back *tierBlock
	bytes       int64
}

//slinfer:hotpath
func (l *tierList) pushFront(b *tierBlock) {
	b.prev = nil
	b.next = l.front
	if l.front != nil {
		l.front.prev = b
	}
	l.front = b
	if l.back == nil {
		l.back = b
	}
	l.bytes += b.bytes
}

//slinfer:hotpath
func (l *tierList) remove(b *tierBlock) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		l.front = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		l.back = b.prev
	}
	b.prev, b.next = nil, nil
	l.bytes -= b.bytes
}

// TieredStore is the controller-wide prefix pool: a deterministic block-hash
// index over two capacity-bounded LRU tiers. It is pure accounting plus a
// transfer cost model — simulated time advances only through the durations
// it returns.
type TieredStore struct {
	cfg   TieredConfig
	index blockTable
	gpu   tierList
	cpu   tierList
	// Leading PrefixKey segments are interned: rootID maps a root to its
	// index in roots, and rootBytes[id] tracks that root's resident bytes.
	// Fleet snapshots consume them for KV-affinity routing.
	rootID    map[string]int32
	roots     []string
	rootBytes []int64
	free      *tierBlock // recycled blocks, reused before allocating

	// Ledger is the store's transition accounting. Read-only for callers;
	// tests may corrupt it deliberately to prove the conservation checker
	// fires.
	Ledger TierLedger
}

// NewTieredStore returns an empty store for the given (defaulted) config.
func NewTieredStore(cfg TieredConfig) *TieredStore {
	s := &TieredStore{}
	s.Reset(cfg)
	return s
}

// Reset reinitializes a recycled store in place, equivalent to
// NewTieredStore(cfg). Resident blocks from the previous run move to the
// free list; the index, the root table and their capacity are kept.
func (s *TieredStore) Reset(cfg TieredConfig) {
	for _, l := range [...]*tierList{&s.gpu, &s.cpu} {
		for b := l.front; b != nil; {
			next := b.next
			*b = tierBlock{next: s.free}
			s.free = b
			b = next
		}
	}
	s.index.clear()
	rootID := s.rootID
	if rootID == nil {
		rootID = make(map[string]int32)
	}
	clear(rootID)
	clear(s.roots)
	*s = TieredStore{
		cfg:       cfg.WithDefaults(),
		index:     s.index,
		rootID:    rootID,
		roots:     s.roots[:0],
		rootBytes: s.rootBytes[:0],
		free:      s.free,
	}
}

// Config returns the defaulted configuration the store runs with.
func (s *TieredStore) Config() TieredConfig { return s.cfg }

// SetGPUCapacity changes the GPU tier's capacity in place (fault
// injection: KVTierDegrade shrinks it, recovery restores it). Shrinking
// below current residency spills LRU blocks to the CPU tier immediately,
// so the GPU tier never holds more than its capacity. No-op on a
// nil/zero-capacity store.
func (s *TieredStore) SetGPUCapacity(bytes int64) {
	if s == nil || bytes <= 0 || bytes == s.cfg.GPUBytes {
		return
	}
	s.cfg.GPUBytes = bytes
	s.makeGPURoom(0)
}

// TierUsage recomputes the resident bytes per tier by walking the block
// lists — the ground truth the ledger is reconciled against.
func (s *TieredStore) TierUsage() (gpuBytes, cpuBytes int64) {
	for b := s.gpu.front; b != nil; b = b.next {
		gpuBytes += b.bytes
	}
	for b := s.cpu.front; b != nil; b = b.next {
		cpuBytes += b.bytes
	}
	return gpuBytes, cpuBytes
}

// PrefixRoot returns the leading segment of a hierarchical PrefixKey — the
// granularity KV-affinity routing scores at.
func PrefixRoot(key string) string {
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			return key[:i]
		}
	}
	return key
}

// RootResidency is one (leading segment, resident bytes) pair from
// AppendResidency.
type RootResidency struct {
	Root  string
	Bytes int64
}

// AppendResidency appends the store's per-root resident bytes to dst,
// sorted by root for determinism, and returns the extended slice.
func (s *TieredStore) AppendResidency(dst []RootResidency) []RootResidency {
	start := len(dst)
	for id, bytes := range s.rootBytes {
		if bytes > 0 {
			dst = append(dst, RootResidency{Root: s.roots[id], Bytes: bytes})
		}
	}
	tail := dst[start:]
	// Insertion sort: residency lists are small (a handful of templates and
	// live sessions), and this avoids a sort.Slice closure allocation.
	for i := 1; i < len(tail); i++ {
		for j := i; j > 0 && tail[j].Root < tail[j-1].Root; j-- {
			tail[j], tail[j-1] = tail[j-1], tail[j]
		}
	}
	return dst
}

// fnv64a constants (hash/fnv is not used directly: the hot lookup path
// hashes incrementally without allocating a hasher).
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

//slinfer:hotpath
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

//slinfer:hotpath
func fnvByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime64
	return h
}

// fmix64 is MurmurHash3's 64-bit finalizer: a bijection that spreads every
// input bit over the whole word.
//
//slinfer:hotpath
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// chainStep advances the block-hash chain: block idx's identity mixes the
// previous block's hash, the owning key segment's hash, and the position,
// so equal leading (segment, position) sequences — and nothing else —
// collide. prev is mixed on its own first: the chain is seeded with the
// model name's FNV hash and owner is the key's, so a symmetric combine
// would send model "k" with key "k" and model "j" with key "j" to the same
// block.
//
//slinfer:hotpath
func chainStep(prev, owner uint64, idx int) uint64 {
	return fmix64(fmix64(prev) ^ owner ^ uint64(idx)*0x9e3779b97f4a7c15)
}

// segCursor walks a PrefixKey's segments in token order. Segments are
// '/'-separated, and a "@N" suffix pins a segment to its next N tokens; the
// owner of a token is the key prefix through the first segment that is
// open-ended, still inside its bound, or last. The cursor holds the
// current owner's FNV-1a hash, extending it one segment at a time, so a
// walk over a whole context hashes each key byte once.
type segCursor struct {
	key   string
	end   int    // the owner is key[:end]
	limit int    // tokens below limit belong to the owner, unless open
	open  bool   // the owner takes every remaining token
	hash  uint64 // FNV-1a of key[:end]
}

func newSegCursor(key string) segCursor {
	c := segCursor{key: key, end: -1, hash: fnvOffset64}
	c.advance(0)
	return c
}

// advance extends the owner by the next segment, whose bound starts at
// token covered.
//
//slinfer:hotpath
func (c *segCursor) advance(covered int) {
	start := c.end + 1
	if c.end >= 0 {
		c.hash = fnvByte(c.hash, '/')
	}
	end, tokens := start, -1 // -1: open-ended
	for end < len(c.key) && c.key[end] != '/' {
		if c.key[end] == '@' && tokens < 0 {
			tokens = 0
			for j := end + 1; j < len(c.key) && c.key[j] != '/'; j++ {
				if d := c.key[j]; d >= '0' && d <= '9' {
					tokens = tokens*10 + int(d-'0')
				}
			}
		}
		end++
	}
	c.hash = fnvString(c.hash, c.key[start:end])
	c.end = end
	c.open = tokens < 0 || end >= len(c.key)
	c.limit = covered + tokens
}

// ownerHash moves the cursor to the segment owning token tok and returns
// the owner's hash. tok must not decrease between calls.
//
//slinfer:hotpath
func (c *segCursor) ownerHash(tok int) uint64 {
	for !c.open && tok >= c.limit {
		c.advance(c.limit)
	}
	return c.hash
}

// blockTable indexes resident blocks by chain hash: open addressing with
// linear probing. Chain hashes are already mixed, so the low bits pick the
// home slot. Deletion shifts the rest of the probe run back instead of
// leaving tombstones, and the table doubles before it is half full.
type blockTable struct {
	slots []blockSlot // nil b marks an empty slot
	mask  uint64
	n     int
}

type blockSlot struct {
	key uint64
	b   *tierBlock
}

// minTableSlots is the size of a table's first allocation.
const minTableSlots = 64

// get returns the block indexed under key, or nil.
//
//slinfer:hotpath
func (t *blockTable) get(key uint64) *tierBlock {
	if t.n == 0 {
		return nil
	}
	for i := key & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.b == nil || s.key == key {
			return s.b
		}
	}
}

// put indexes b under key, which must not be present.
//
//slinfer:hotpath
func (t *blockTable) put(key uint64, b *tierBlock) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	i := key & t.mask
	for t.slots[i].b != nil {
		i = (i + 1) & t.mask
	}
	t.slots[i] = blockSlot{key: key, b: b}
	t.n++
}

// del removes key (a no-op if absent), shifting later members of its probe
// run back so every key stays reachable from its home slot.
//
//slinfer:hotpath
func (t *blockTable) del(key uint64) {
	if t.n == 0 {
		return
	}
	i := key & t.mask
	for t.slots[i].b != nil && t.slots[i].key != key {
		i = (i + 1) & t.mask
	}
	if t.slots[i].b == nil {
		return
	}
	for j := (i + 1) & t.mask; t.slots[j].b != nil; j = (j + 1) & t.mask {
		// The entry at j may fill the hole at i unless its home slot lies
		// cyclically in (i, j].
		if home := t.slots[j].key & t.mask; (j-home)&t.mask >= (j-i)&t.mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = blockSlot{}
	t.n--
}

// grow doubles the table (or makes the first one) and reinserts every key.
func (t *blockTable) grow() {
	old := t.slots
	t.slots = make([]blockSlot, max(2*len(old), minTableSlots))
	t.mask = uint64(len(t.slots) - 1)
	t.n = 0
	for _, s := range old {
		if s.b != nil {
			t.put(s.key, s.b)
		}
	}
}

// clear empties the table and keeps its capacity.
func (t *blockTable) clear() {
	clear(t.slots)
	t.n = 0
}

// Lookup walks the leading full blocks of a request's prompt through the
// index and returns the cached token count plus the host-to-device transfer
// cost for blocks served from the CPU tier (promoted back to GPU as a side
// effect). Partial trailing blocks never hit. A zero hit on a non-empty key
// still counts a lookup, feeding the miss side of the hit-rate metric.
//
//slinfer:hotpath
func (s *TieredStore) Lookup(modelName, key string, inputTokens int, kvBytesPerToken int64) (hitTokens int, xfer sim.Duration) {
	if s == nil || key == "" || inputTokens <= 0 || kvBytesPerToken <= 0 {
		return 0, 0
	}
	bt := s.cfg.BlockTokens
	nBlocks := inputTokens / bt
	cur := newSegCursor(key)
	h := fnvString(fnvOffset64, modelName)
	var promoted int64
	for i := 0; i < nBlocks; i++ {
		h = chainStep(h, cur.ownerHash(i*bt), i)
		b := s.index.get(h)
		if b == nil {
			break
		}
		if b.tier == tierCPU {
			promoted += b.bytes
			s.promote(b)
		} else {
			s.gpu.remove(b)
			s.gpu.pushFront(b)
		}
		hitTokens += bt
	}
	hitBytes := int64(hitTokens) * kvBytesPerToken
	s.Ledger.Lookups++
	if hitTokens > 0 {
		s.Ledger.Hits++
	}
	s.Ledger.HitBytes += hitBytes
	s.Ledger.MissBytes += int64(inputTokens-hitTokens) * kvBytesPerToken
	s.Ledger.CPUHitBytes += promoted
	return hitTokens, PromoteTime(promoted)
}

// promote moves a CPU-tier block back into the GPU tier, spilling the GPU
// tail to make room. If the block cannot fit even after spilling everything
// else, it stays resident in the CPU tier (served over PCIe in place).
//
//slinfer:hotpath
func (s *TieredStore) promote(b *tierBlock) {
	if b.bytes > s.cfg.GPUBytes {
		s.cpu.remove(b)
		s.cpu.pushFront(b)
		return
	}
	s.cpu.remove(b)
	s.Ledger.CPUBytes -= b.bytes
	s.makeGPURoom(b.bytes)
	b.tier = tierGPU
	s.gpu.pushFront(b)
	s.Ledger.GPUBytes += b.bytes
	s.Ledger.PromotedBytes += b.bytes
}

// makeGPURoom spills LRU GPU blocks to the CPU tier (or frees them when the
// host tier is disabled or full) until need bytes fit.
//
//slinfer:hotpath
func (s *TieredStore) makeGPURoom(need int64) {
	for s.gpu.bytes+need > s.cfg.GPUBytes && s.gpu.back != nil {
		victim := s.gpu.back
		s.gpu.remove(victim)
		s.Ledger.GPUBytes -= victim.bytes
		if s.cfg.CPUBytes > 0 && victim.bytes <= s.cfg.CPUBytes {
			s.makeCPURoom(victim.bytes)
			victim.tier = tierCPU
			s.cpu.pushFront(victim)
			s.Ledger.CPUBytes += victim.bytes
			s.Ledger.Spills++
			s.Ledger.SpillBytes += victim.bytes
		} else {
			s.freeBlock(victim)
		}
	}
}

// makeCPURoom frees LRU CPU blocks until need bytes fit in the host tier.
//
//slinfer:hotpath
func (s *TieredStore) makeCPURoom(need int64) {
	for s.cpu.bytes+need > s.cfg.CPUBytes && s.cpu.back != nil {
		victim := s.cpu.back
		s.cpu.remove(victim)
		s.Ledger.CPUBytes -= victim.bytes
		s.freeBlock(victim)
	}
}

// freeBlock evicts a block out of the store entirely and recycles it.
//
//slinfer:hotpath
func (s *TieredStore) freeBlock(b *tierBlock) {
	s.Ledger.FreedBytes += b.bytes
	s.Ledger.Evictions++
	s.rootBytes[b.root] -= b.bytes
	s.index.del(b.hash)
	*b = tierBlock{next: s.free}
	s.free = b
}

// Insert demotes a completed request's context into the store: every full
// leading block (prompt plus generated tokens — the whole KV state resident
// at completion) is admitted to the GPU tier or refreshed if already
// present. Returns the device-to-host spill cost incurred making room, for
// callers that book background copy overhead.
func (s *TieredStore) Insert(modelName, key string, contextTokens int, kvBytesPerToken int64) sim.Duration {
	if s == nil || key == "" || contextTokens <= 0 || kvBytesPerToken <= 0 {
		return 0
	}
	bt := s.cfg.BlockTokens
	nBlocks := contextTokens / bt
	blockBytes := int64(bt) * kvBytesPerToken
	root := s.internRoot(PrefixRoot(key))
	cur := newSegCursor(key)
	h := fnvString(fnvOffset64, modelName)
	spilledBefore := s.Ledger.SpillBytes
	for i := 0; i < nBlocks; i++ {
		h = chainStep(h, cur.ownerHash(i*bt), i)
		if b := s.index.get(h); b != nil {
			// Refresh recency in place; resident tier is untouched.
			if b.tier == tierGPU {
				s.gpu.remove(b)
				s.gpu.pushFront(b)
			} else {
				s.cpu.remove(b)
				s.cpu.pushFront(b)
			}
			continue
		}
		if blockBytes > s.cfg.GPUBytes {
			continue // a single block larger than the tier can never fit
		}
		s.makeGPURoom(blockBytes)
		b := s.free
		if b != nil {
			s.free = b.next
			*b = tierBlock{}
		} else {
			b = &tierBlock{}
		}
		b.hash, b.bytes, b.tier, b.root = h, blockBytes, tierGPU, root
		s.index.put(h, b)
		s.gpu.pushFront(b)
		s.Ledger.AllocatedBytes += blockBytes
		s.Ledger.GPUBytes += blockBytes
		s.Ledger.Inserts++
		s.rootBytes[root] += blockBytes
	}
	return SpillTime(s.Ledger.SpillBytes - spilledBefore)
}

// internRoot returns root's ID, assigning the next one on first sight.
func (s *TieredStore) internRoot(root string) int32 {
	if id, ok := s.rootID[root]; ok {
		return id
	}
	id := int32(len(s.roots))
	s.rootID[root] = id
	s.roots = append(s.roots, root)
	s.rootBytes = append(s.rootBytes, 0)
	return id
}
