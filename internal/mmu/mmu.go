// Package mmu models GPU address translation as described in Section
// II-A of the ZnG paper: per-SM L1 TLBs backed by a shared MMU with a
// highly-threaded page-table walker (32 threads), a page-walk cache,
// and a page-fault handler hook.
//
// Two translation regimes matter to the evaluation:
//
//   - Baseline platforms walk an in-memory page table on TLB misses
//     (hundreds of cycles per walk, limited walker concurrency).
//   - ZnG stores the read-only data-block mapping table (DBMT) of its
//     split FTL inside the MMU's SRAM (~80 KB, Section III-B), so a
//     TLB miss costs only the DBMT lookup — the "zero-overhead FTL".
//
// The actual virtual-to-physical mapping function is injected by the
// platform (identity for DRAM platforms, DBMT for ZnG); this package
// charges the time. Each translation in flight is one pooled record,
// so translating allocates nothing in the steady state.
package mmu

import (
	"zng/internal/config"
	"zng/internal/sim"
	"zng/internal/stats"
)

// PageBytes is the translation granularity.
const PageBytes = 4096

// tlb is a set-associative translation buffer with exact per-set LRU
// replacement, laid out as dense slot arrays: per-set intrusive LRU
// lists give O(1) hit promotion and eviction, and a small
// open-addressed index (linear probing with backward-shift deletion,
// <=50% load) gives O(1) slot resolution without map overhead or the
// O(capacity) victim scan the map-backed buffer paid on every
// eviction. A single set with as many ways as entries — the
// simulator's default geometry — is exactly the fully-associative
// LRU buffer of Sections II-A/III-B.
type tlb struct {
	sets, ways int

	// Slot state, len sets*ways; set s owns slots [s*ways, s*ways+ways).
	keys       []uint64
	prev, next []int32 // intrusive LRU list; next also links free slots

	// Per-set list state: MRU head, LRU tail, free-slot stack, live
	// count. -1 marks an empty list.
	head, tail, free, size []int32

	// Open-addressed page -> slot+1 index (0 = empty).
	idxKey  []uint64
	idxSlot []int32
	idxMask uint64
}

// newTLB builds the default fully-associative geometry.
func newTLB(capacity int) *tlb { return newSetAssocTLB(1, capacity) }

// newSetAssocTLB builds a sets x ways buffer; pages map to sets by
// page number modulo sets.
func newSetAssocTLB(sets, ways int) *tlb {
	n := sets * ways
	idxSize := 1
	for idxSize < 2*n {
		idxSize <<= 1
	}
	t := &tlb{
		sets: sets, ways: ways,
		keys: make([]uint64, n),
		prev: make([]int32, n),
		next: make([]int32, n),
		head: make([]int32, sets),
		tail: make([]int32, sets),
		free: make([]int32, sets),
		size: make([]int32, sets),

		idxKey:  make([]uint64, idxSize),
		idxSlot: make([]int32, idxSize),
		idxMask: uint64(idxSize - 1),
	}
	for s := 0; s < sets; s++ {
		t.head[s], t.tail[s] = -1, -1
		t.free[s] = int32(s * ways)
		for w := 0; w < ways; w++ {
			slot := s*ways + w
			t.next[slot] = int32(slot + 1)
			if w == ways-1 {
				t.next[slot] = -1
			}
		}
	}
	return t
}

func (t *tlb) hash(page uint64) uint64 {
	return (page * 0x9E3779B97F4A7C15) >> 32 & t.idxMask
}

// find resolves page to its slot through the index.
func (t *tlb) find(page uint64) (int32, bool) {
	for i := t.hash(page); t.idxSlot[i] != 0; i = (i + 1) & t.idxMask {
		if t.idxKey[i] == page {
			return t.idxSlot[i] - 1, true
		}
	}
	return 0, false
}

func (t *tlb) idxInsert(page uint64, slot int32) {
	i := t.hash(page)
	for t.idxSlot[i] != 0 {
		i = (i + 1) & t.idxMask
	}
	t.idxKey[i] = page
	t.idxSlot[i] = slot + 1
}

// idxDelete removes page's index entry, backward-shifting the probe
// run so linear probing never needs tombstones.
func (t *tlb) idxDelete(page uint64) {
	i := t.hash(page)
	for t.idxKey[i] != page || t.idxSlot[i] == 0 {
		i = (i + 1) & t.idxMask
	}
	for {
		t.idxSlot[i] = 0
		j := i
		for {
			j = (j + 1) & t.idxMask
			if t.idxSlot[j] == 0 {
				return
			}
			h := t.hash(t.idxKey[j])
			// Move j's entry into the hole at i only if its home
			// position lies cyclically outside (i, j] — otherwise the
			// entry is still reachable from its home and must stay.
			if i <= j && h <= i || h > j && (i <= j || h <= i) {
				t.idxKey[i], t.idxSlot[i] = t.idxKey[j], t.idxSlot[j]
				i = j
				break
			}
		}
	}
}

// listUnlink removes slot from set s's LRU list.
func (t *tlb) listUnlink(s int, slot int32) {
	if t.prev[slot] >= 0 {
		t.next[t.prev[slot]] = t.next[slot]
	} else {
		t.head[s] = t.next[slot]
	}
	if t.next[slot] >= 0 {
		t.prev[t.next[slot]] = t.prev[slot]
	} else {
		t.tail[s] = t.prev[slot]
	}
}

// listPushFront makes slot set s's MRU.
func (t *tlb) listPushFront(s int, slot int32) {
	t.prev[slot] = -1
	t.next[slot] = t.head[s]
	if t.head[s] >= 0 {
		t.prev[t.head[s]] = slot
	} else {
		t.tail[s] = slot
	}
	t.head[s] = slot
}

func (t *tlb) set(page uint64) int { return int(page % uint64(t.sets)) }

// evict drops set s's LRU entry, freeing its slot.
func (t *tlb) evict(s int) {
	victim := t.tail[s]
	t.idxDelete(t.keys[victim])
	t.listUnlink(s, victim)
	t.next[victim] = t.free[s]
	t.free[s] = victim
	t.size[s]--
}

func (t *tlb) lookup(page uint64) bool {
	slot, ok := t.find(page)
	if !ok {
		return false
	}
	s := int(slot) / t.ways
	if t.head[s] != slot {
		t.listUnlink(s, slot)
		t.listPushFront(s, slot)
	}
	return true
}

// insert fills page's set, evicting that set's LRU entry first when
// the set is full — including the degenerate re-insert-at-capacity
// case, where page itself is the LRU victim and cycles through a
// fresh slot, exactly as the stamp-based buffer behaved.
func (t *tlb) insert(page uint64) {
	s := t.set(page)
	if int(t.size[s]) >= t.ways {
		t.evict(s)
	}
	if slot, ok := t.find(page); ok {
		if t.head[s] != slot {
			t.listUnlink(s, slot)
			t.listPushFront(s, slot)
		}
		return
	}
	slot := t.free[s]
	t.free[s] = t.next[slot]
	t.keys[slot] = page
	t.idxInsert(page, slot)
	t.listPushFront(s, slot)
	t.size[s]++
}

// invalidate drops page if present.
func (t *tlb) invalidate(page uint64) {
	slot, ok := t.find(page)
	if !ok {
		return
	}
	s := int(slot) / t.ways
	t.idxDelete(page)
	t.listUnlink(s, slot)
	t.next[slot] = t.free[s]
	t.free[s] = slot
	t.size[s]--
}

// stateBytes reports the buffer's allocated footprint.
func (t *tlb) stateBytes() uint64 {
	n := uint64(len(t.keys))
	return n*8 + n*4*2 + uint64(len(t.head))*4*4 + uint64(len(t.idxKey))*12
}

// Unit is the shared MMU plus the per-SM L1 TLBs.
type Unit struct {
	eng *sim.Engine
	cfg config.MMU

	l1        []*tlb
	walkCache *tlb
	walkers   *sim.Pool

	// WalkLat is the full page-table walk latency charged on a
	// walk-cache miss. For ZnG platforms it is cfg.DBMTLatency (the
	// in-MMU block-mapping lookup); for baselines it is
	// WalkLevels*WalkMemLatency.
	WalkLat sim.Tick
	// WalkCacheLat is charged when the walk hits the page-walk cache.
	WalkCacheLat sim.Tick

	// Translate maps a virtual address to the platform's physical
	// address space. It must be set before use.
	Translate func(va uint64) uint64

	// Fault, if non-nil, is consulted on every translation; returning
	// true means the page is non-resident and resume will be invoked
	// by the platform when the fault is serviced (Hetero's host path).
	// resume is bound once per pooled translation record, so passing
	// it allocates nothing.
	Fault func(va uint64, resume func()) bool

	xlates sim.FreeList[xlate]

	// Statistics.
	L1Hits, L1Misses   stats.Counter
	WalkCacheHits      stats.Counter
	Walks              stats.Counter
	Faults             stats.Counter
	TranslationLatency stats.Histogram
}

// New creates an MMU for sms streaming multiprocessors. walkLat is the
// charge for a full walk (see Unit.WalkLat).
func New(eng *sim.Engine, cfg config.MMU, sms int, walkLat sim.Tick) *Unit {
	u := &Unit{
		eng:          eng,
		cfg:          cfg,
		walkCache:    newTLB(cfg.WalkCacheEnt),
		walkers:      sim.NewPool(eng, cfg.WalkerThreads),
		WalkLat:      walkLat,
		WalkCacheLat: 8,
	}
	for i := 0; i < sms; i++ {
		u.l1 = append(u.l1, newTLB(cfg.L1TLBEntries))
	}
	return u
}

// BaselineWalkLat returns the full-walk latency for page-table-in-
// memory platforms.
func BaselineWalkLat(cfg config.MMU) sim.Tick {
	return sim.Tick(cfg.WalkLevels) * cfg.WalkMemLatency
}

// Translated is the typed target of a translation: usually the
// issuer's own pooled access record.
type Translated interface {
	// Translated delivers the physical address of the requested va.
	Translated(pa uint64)
}

// xlate is one translation in flight. It is the walker-pool event of
// a full walk and the delivery event of a TLB or walk-cache hit;
// cleared is its fault-resume callback.
type xlate struct {
	u   *Unit
	sm  int
	va  uint64
	to  Translated
	lat sim.Tick // delivery delay once a TLB/walk-cache hit is resident
	// walk marks a full page-table walk: its event installs the page,
	// and delivery follows the residency check without further delay.
	walk    bool
	cleared func()
}

// Request translates va for the given SM and delivers the physical
// address to to.Translated. Latency is charged per the
// TLB/walk/fault path.
func (u *Unit) Request(sm int, va uint64, to Translated) {
	if u.Translate == nil {
		panic("mmu: Translate not configured")
	}
	page := va / PageBytes

	x := u.xlates.Get()
	if x.cleared == nil {
		x.cleared = x.resident
	}
	x.u, x.sm, x.va, x.to, x.walk = u, sm, va, to, false

	if u.l1[sm].lookup(page) {
		u.L1Hits.Inc()
		// A TLB hit still requires residency (Hetero can evict pages).
		x.lat = 1
		u.checkResident(x)
		return
	}
	u.L1Misses.Inc()

	if u.walkCache.lookup(page) {
		u.WalkCacheHits.Inc()
		u.l1[sm].insert(page)
		x.lat = u.WalkCacheLat
		u.checkResident(x)
		return
	}

	// Full walk on one of the walker threads.
	u.Walks.Inc()
	x.walk = true
	u.walkers.Acquire(u.WalkLat, x)
}

// checkResident consults the fault hook; a faulting translation waits
// for the platform to call x.cleared.
func (u *Unit) checkResident(x *xlate) {
	if u.Fault != nil && u.Fault(x.va, x.cleared) {
		u.Faults.Inc()
		return // platform resumes us
	}
	x.resident()
}

// resident continues once the page is resident: a walk delivers now,
// a hit after its lookup latency.
func (x *xlate) resident() {
	if x.walk {
		x.deliver()
		return
	}
	x.u.eng.Post(x.lat, x)
}

// Fire is a completed walk (install the page, then check residency)
// or a hit's delivery.
func (x *xlate) Fire() {
	if !x.walk {
		x.deliver()
		return
	}
	u := x.u
	page := x.va / PageBytes
	u.walkCache.insert(page)
	u.l1[x.sm].insert(page)
	u.checkResident(x)
}

// deliver hands the physical address to the target and recycles the
// record first, so the target may issue a new translation at once.
func (x *xlate) deliver() {
	u, to := x.u, x.to
	pa := u.Translate(x.va)
	x.to = nil
	u.xlates.Put(x)
	to.Translated(pa)
}

// InvalidatePage drops a page from every TLB level (used when the
// Hetero platform evicts a resident page, and by the ZnG helper thread
// after garbage collection remaps blocks).
func (u *Unit) InvalidatePage(page uint64) {
	for _, t := range u.l1 {
		t.invalidate(page)
	}
	u.walkCache.invalidate(page)
}

// StateBytes reports the allocated footprint of every TLB level —
// the MMU's share of the translation state the scale sweep tracks.
func (u *Unit) StateBytes() uint64 {
	b := u.walkCache.stateBytes()
	for _, t := range u.l1 {
		b += t.stateBytes()
	}
	return b
}

// L1HitRate reports the aggregate L1 TLB hit rate.
func (u *Unit) L1HitRate() float64 {
	t := u.L1Hits.Value() + u.L1Misses.Value()
	if t == 0 {
		return 0
	}
	return float64(u.L1Hits.Value()) / float64(t)
}
