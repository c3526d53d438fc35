// Prefix-aware tiered KV cache. Completed requests demote their KV blocks
// into a shared two-tier pool (GPU-resident, then host-spill) instead of
// dropping them; admission looks the new request's prefix up and charges
// prefill only for the uncached suffix plus a PCIe promotion cost for
// host-resident blocks.
//
// Sharing is per token block, and the index is per key segment: block i of
// a request belongs to the PrefixKey segment owning its first token, and
// two requests share exactly the leading blocks whose owners and positions
// agree. PrefixKeys are hierarchical — "tpl3@512/sess17" pins the first
// 512 tokens to template 3 (shared across every session using it) and the
// remainder to session 17 (shared across that conversation's turns). Each
// owner segment of a model's chain is one index node, and the node's
// resident blocks are extents: runs of positions that sit together in one
// tier's LRU list.
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
	// CPUBytes caps the host spill tier. Zero means the default, four
	// times GPUBytes; a negative value drops the host tier, so spilled
	// blocks are freed immediately.
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

// segNode is one owner segment of one model's chain, e.g. "tpl3@512" or
// "tpl3@512/sess17" under it. Its resident blocks are its extents, kept in
// a list sorted by position; an indexed node always has at least one.
type segNode struct {
	key  uint64
	root int32 // interned leading PrefixKey segment, for residency accounting
	ext  *extent
	free *segNode // free-list link
}

// extent is the positions [lo, hi) of one node in one tier, hi-lo blocks of
// bytes each. Its blocks sit next to each other in the tier's LRU list, and
// recency rises with position: lo is the least recent.
type extent struct {
	node       *segNode
	lo, hi     int32
	bytes      int64 // per block
	tier       int8
	prev, next *extent // tier list; prev is toward the front; next links the free list
	nnext      *extent // node list, sorted by lo
}

// at returns the node's first extent that ends after position p, or nil:
// the one holding p if its lo is p, else the next one. A walk meets every
// extent at its lo (DESIGN.md, "Tiers"), so that extent never starts
// below p.
//
//slinfer:hotpath
func (n *segNode) at(p int32) *extent {
	e := n.ext
	for e != nil && e.hi <= p {
		e = e.nnext
	}
	if e != nil && e.lo < p {
		panic("kvcache: a walk met an extent past its lo")
	}
	return e
}

// link inserts e into its node's list, keeping the list sorted by lo.
//
//slinfer:hotpath
func (n *segNode) link(e *extent) {
	pp := &n.ext
	for *pp != nil && (*pp).lo < e.lo {
		pp = &(*pp).nnext
	}
	e.nnext, *pp = *pp, e
}

//slinfer:hotpath
func (n *segNode) unlink(e *extent) {
	pp := &n.ext
	for *pp != e {
		pp = &(*pp).nnext
	}
	*pp = e.nnext
}

// tierList is an intrusive doubly-linked LRU list of extents: front is most
// recently used, eviction candidates come off the back.
type tierList struct {
	front, back *extent
	bytes       int64
}

//slinfer:hotpath
func (l *tierList) pushFront(e *extent) {
	e.prev = nil
	e.next = l.front
	if l.front != nil {
		l.front.prev = e
	}
	l.front = e
	if l.back == nil {
		l.back = e
	}
}

//slinfer:hotpath
func (l *tierList) remove(e *extent) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.back = e.prev
	}
}

// TieredStore is the controller-wide prefix pool: a deterministic index of
// segment nodes over two capacity-bounded LRU tiers of extents. It is pure
// accounting plus a transfer cost model — simulated time advances only
// through the durations it returns.
type TieredStore struct {
	cfg   TieredConfig
	index map[uint64]*segNode
	gpu   tierList
	cpu   tierList
	// Leading PrefixKey segments are interned: rootID maps a root to its
	// index in roots, and rootBytes[id] tracks that root's resident bytes.
	// Fleet snapshots consume them for KV-affinity routing.
	rootID    map[string]int32
	roots     []string
	rootBytes []int64
	freeExt   *extent  // recycled extents, reused before allocating
	freeNode  *segNode // recycled nodes, likewise

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
// NewTieredStore(cfg). Resident extents and their nodes from the previous
// run move to the free lists; the index, the root table and their
// capacity are kept.
func (s *TieredStore) Reset(cfg TieredConfig) {
	for _, l := range [...]*tierList{&s.gpu, &s.cpu} {
		for e := l.front; e != nil; {
			next := e.next
			if n := e.node; n.ext != nil { // first extent seen of this node
				*n = segNode{free: s.freeNode}
				s.freeNode = n
			}
			*e = extent{next: s.freeExt}
			s.freeExt = e
			e = next
		}
	}
	index, rootID := s.index, s.rootID
	if index == nil {
		index, rootID = make(map[uint64]*segNode), make(map[string]int32)
	}
	clear(index)
	clear(rootID)
	clear(s.roots)
	*s = TieredStore{
		cfg:       cfg.WithDefaults(),
		index:     index,
		rootID:    rootID,
		roots:     s.roots[:0],
		rootBytes: s.rootBytes[:0],
		freeExt:   s.freeExt,
		freeNode:  s.freeNode,
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
	s.makeGPURoom()
}

// TierUsage recomputes the resident bytes per tier by walking the extent
// lists — the ground truth the ledger is reconciled against.
func (s *TieredStore) TierUsage() (gpuBytes, cpuBytes int64) {
	for e := s.gpu.front; e != nil; e = e.next {
		gpuBytes += int64(e.hi-e.lo) * e.bytes
	}
	for e := s.cpu.front; e != nil; e = e.next {
		cpuBytes += int64(e.hi-e.lo) * e.bytes
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

// nodeWalk steps through the segment nodes a key's first n blocks fall
// in. After next, key is the node's index key and [lo, hi) the block
// positions it owns, clipped to n: a bounded owner takes positions up to
// ceil(limit/bt), an open one the rest.
type nodeWalk struct {
	cur    segCursor
	key    uint64
	lo, hi int32
	n      int32
	bt     int
}

func newNodeWalk(modelName, key string, n, bt int) nodeWalk {
	return nodeWalk{cur: newSegCursor(key), key: fnvString(fnvOffset64, modelName), n: int32(n), bt: bt}
}

//slinfer:hotpath
func (w *nodeWalk) next() bool {
	w.lo = w.hi
	if w.lo >= w.n {
		return false
	}
	w.key = chainStep(w.key, w.cur.ownerHash(int(w.lo)*w.bt), int(w.lo))
	w.hi = w.n
	if !w.cur.open && w.cur.limit < int(w.n)*w.bt {
		w.hi = int32((w.cur.limit + w.bt - 1) / w.bt)
	}
	return true
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
	w := newNodeWalk(modelName, key, inputTokens/bt, bt)
	var hit int32
	var promoted int64
walk:
	for w.next() {
		n := s.index[w.key]
		for p := w.lo; p < w.hi; {
			var e *extent
			if n != nil {
				e = n.at(p)
			}
			if e == nil || e.lo > p {
				break walk
			}
			q, b := min(e.hi, w.hi), e.bytes
			switch {
			case e.tier == tierGPU:
				s.move(e, q, tierGPU)
			case b > s.cfg.GPUBytes:
				// Too large for the GPU tier: served over PCIe in place.
				promoted += int64(q-p) * b
				s.move(e, q, tierCPU)
			default:
				q = p + s.promoteBatch(b, q-p)
				moved := int64(q-p) * b
				promoted += moved
				s.move(e, q, tierGPU)
				s.Ledger.CPUBytes -= moved
				s.Ledger.GPUBytes += moved
				s.Ledger.PromotedBytes += moved
				s.makeGPURoom()
			}
			hit += q - p
			p = q
		}
	}
	hitTokens = int(hit) * bt
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

// promoteBatch returns how many of k CPU blocks of w bytes (w within the
// GPU tier) one promote step may move: no more than the GPU tier holds,
// and more than one only while every GPU block the step spills has w bytes
// too (DESIGN.md, "Exactness rule for bulk steps").
//
//slinfer:hotpath
func (s *TieredStore) promoteBatch(w int64, k int32) int32 {
	room := s.cfg.GPUBytes - s.gpu.bytes
	for e := s.gpu.back; e != nil && e.bytes == w && room < int64(k)*w; e = e.prev {
		room += int64(e.hi-e.lo) * w
	}
	return max(1, min(k, int32(room/w)))
}

// move takes e's positions below q out of it and pushes them to the front
// of tier to. Byte counts follow; the ledger is the caller's.
//
//slinfer:hotpath
func (s *TieredStore) move(e *extent, q int32, to int8) {
	n, p, w := e.node, e.lo, e.bytes
	s.cut(e, q)
	s.pushFront(to, n, p, q, w)
}

// cut removes e's positions below q. Every step takes an extent's lowest
// positions: a walk meets each extent at its lo, and spills and evictions
// take the back extent's lowest (DESIGN.md, "Tiers"). The node stays
// indexed even if this empties it: a cut is half of a move, and only free
// drops a node.
//
//slinfer:hotpath
func (s *TieredStore) cut(e *extent, q int32) {
	l := s.list(e.tier)
	l.bytes -= int64(q-e.lo) * e.bytes
	if q < e.hi {
		e.lo = q
		return
	}
	l.remove(e)
	e.node.unlink(e)
	*e = extent{next: s.freeExt}
	s.freeExt = e
}

// pushFront makes positions [p, q) of node n, blocks of w bytes, the most
// recent run of a tier, merging into the front extent when it continues it.
//
//slinfer:hotpath
func (s *TieredStore) pushFront(tier int8, n *segNode, p, q int32, w int64) {
	l := s.list(tier)
	l.bytes += int64(q-p) * w
	if f := l.front; f != nil && f.node == n && f.hi == p && f.bytes == w {
		f.hi = q
		return
	}
	e := s.newExtent()
	*e = extent{node: n, lo: p, hi: q, bytes: w, tier: tier}
	l.pushFront(e)
	n.link(e)
}

//slinfer:hotpath
func (s *TieredStore) list(tier int8) *tierList {
	if tier == tierGPU {
		return &s.gpu
	}
	return &s.cpu
}

//slinfer:hotpath
func (s *TieredStore) newExtent() *extent {
	e := s.freeExt
	if e == nil {
		return &extent{}
	}
	s.freeExt = e.next
	return e
}

// makeGPURoom spills LRU GPU blocks to the CPU tier (or frees them when the
// host tier is disabled or too small) until the tier fits its capacity,
// taking the lowest positions of the back extent a chunk at a time.
//
//slinfer:hotpath
func (s *TieredStore) makeGPURoom() {
	for s.gpu.bytes > s.cfg.GPUBytes && s.gpu.back != nil {
		e := s.gpu.back
		n, lo, w := e.node, e.lo, e.bytes
		c := min(int64(e.hi-lo), ceilDiv(s.gpu.bytes-s.cfg.GPUBytes, w))
		if s.cfg.CPUBytes > 0 && w <= s.cfg.CPUBytes {
			c = min(c, s.cfg.CPUBytes/w)
			s.makeCPURoom(c * w) // before the cut: n keeps e meanwhile
			s.cut(e, lo+int32(c))
			s.pushFront(tierCPU, n, lo, lo+int32(c), w)
			s.Ledger.GPUBytes -= c * w
			s.Ledger.CPUBytes += c * w
			s.Ledger.Spills += c
			s.Ledger.SpillBytes += c * w
		} else {
			s.cut(e, lo+int32(c))
			s.Ledger.GPUBytes -= c * w
			s.free(n, c, w)
		}
	}
}

// makeCPURoom frees LRU CPU blocks until need more bytes fit in the host
// tier.
//
//slinfer:hotpath
func (s *TieredStore) makeCPURoom(need int64) {
	for s.cpu.bytes+need > s.cfg.CPUBytes && s.cpu.back != nil {
		e := s.cpu.back
		n, w := e.node, e.bytes
		c := min(int64(e.hi-e.lo), ceilDiv(s.cpu.bytes+need-s.cfg.CPUBytes, w))
		s.cut(e, e.lo+int32(c))
		s.Ledger.CPUBytes -= c * w
		s.free(n, c, w)
	}
}

// free books c blocks of w bytes of node n, already cut from their tier,
// as evicted out of the store, and drops n from the index once it holds
// nothing.
//
//slinfer:hotpath
func (s *TieredStore) free(n *segNode, c, w int64) {
	s.Ledger.FreedBytes += c * w
	s.Ledger.Evictions += c
	s.rootBytes[n.root] -= c * w
	if n.ext == nil {
		delete(s.index, n.key)
		*n = segNode{free: s.freeNode}
		s.freeNode = n
	}
}

//slinfer:hotpath
func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

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
	w := int64(bt) * kvBytesPerToken
	root := s.internRoot(PrefixRoot(key))
	walk := newNodeWalk(modelName, key, contextTokens/bt, bt)
	spilledBefore := s.Ledger.SpillBytes
	for walk.next() {
		n := s.index[walk.key]
		for p := walk.lo; p < walk.hi; {
			var e *extent
			if n != nil {
				e = n.at(p)
			}
			if e != nil && e.lo == p {
				// Refresh recency in place; resident tier is untouched.
				q := min(e.hi, walk.hi)
				s.move(e, q, e.tier)
				p = q
				continue
			}
			q := walk.hi // a missing run: up to the next resident block
			if e != nil {
				q = min(q, e.lo)
			}
			if w > s.cfg.GPUBytes {
				p = q // a single block larger than the tier can never fit
				continue
			}
			q = min(q, p+int32(s.cfg.GPUBytes/w))
			if n == nil {
				n = s.newNode(walk.key, root)
			}
			s.pushFront(tierGPU, n, p, q, w)
			added := int64(q-p) * w
			s.Ledger.AllocatedBytes += added
			s.Ledger.GPUBytes += added
			s.Ledger.Inserts += int64(q - p)
			s.rootBytes[n.root] += added
			s.makeGPURoom()
			p = q
		}
	}
	return SpillTime(s.Ledger.SpillBytes - spilledBefore)
}

// newNode indexes an empty node under key; the caller gives it an extent.
func (s *TieredStore) newNode(key uint64, root int32) *segNode {
	n := s.freeNode
	if n != nil {
		s.freeNode = n.free
	} else {
		n = &segNode{}
	}
	*n = segNode{key: key, root: root}
	s.index[key] = n
	return n
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
