// Package cache implements the set-associative caches of the
// simulated GPU: the per-SM L1D, the shared L2 (6 MB SRAM in the
// baselines, 24 MB STT-MRAM configured read-only in ZnG), and the
// page-granularity DRAM data buffer of the HybridGPU SSD module.
//
// The L2 tag array carries the ZnG extension bits of Section IV-B: a
// prefetch bit marking lines filled by the read-prefetch unit and an
// accessed bit recording demand hits, which together let the access
// monitor measure prefetch waste. Lines can also be pinned, the
// mechanism the flash-register thrashing checker uses to spill excess
// dirty data into L2.
//
// A cache allocates nothing per access in the steady state: bank
// lookups, MSHR entries (with their line-fill request and waiter
// list), write-allocate fills and writebacks are pooled records that
// act as their own engine events and completion targets, following
// the ownership rule of package mem.
package cache

import (
	"zng/internal/config"
	"zng/internal/mem"
	"zng/internal/sim"
	"zng/internal/stats"
)

type line struct {
	tag      uint64
	valid    bool
	dirty    bool
	prefetch bool // filled by the prefetcher, ZnG tag extension
	accessed bool // demand-hit since fill, ZnG tag extension
	pinned   bool
	stamp    uint64 // LRU timestamp
}

// lookup is one pending tag lookup: the bank-slot event of Access.
type lookup struct {
	c  *Cache
	r  *mem.Request
	la uint64
}

// Fire resolves the lookup once its bank slot is granted.
func (l *lookup) Fire() {
	c, r, la := l.c, l.r, l.la
	l.r = nil
	c.lookups.Put(l)
	c.resolve(r, la)
}

// mshrEntry tracks one outstanding line miss. It issues the line fill
// (embedded, so a miss allocates nothing) and is that fill's
// completion target; waiters keeps its storage across reuses.
type mshrEntry struct {
	c       *Cache
	fill    mem.Request
	waiters []*mem.Request
}

// Completed is the line fill returning from the next level.
func (e *mshrEntry) Completed(*mem.Request) { e.c.fill(e) }

// writeAlloc is a write miss in a write-back cache: it fetches the
// line, dirties it, then completes the store it holds.
type writeAlloc struct {
	c    *Cache
	r    *mem.Request
	fill mem.Request
}

// Completed is the allocating fill returning from the next level.
func (w *writeAlloc) Completed(*mem.Request) {
	c, r, la := w.c, w.r, w.fill.Addr
	w.r = nil
	c.writeAllocs.Put(w)
	c.install(la, false)
	if way := findLine(c.set(la), la); way >= 0 {
		c.set(la)[way].dirty = true
	}
	c.eng.Post(c.cfg.WriteLat, r)
}

// writeback is a dirty-line eviction sent to the next level; nobody
// waits for it, so its completion only recycles the record.
type writeback struct {
	c   *Cache
	req mem.Request
}

// Completed recycles the writeback.
func (w *writeback) Completed(*mem.Request) { w.c.writebacks.Put(w) }

// EvictInfo describes an evicted line for the access monitor.
type EvictInfo struct {
	Addr     uint64
	Prefetch bool
	Accessed bool
	Dirty    bool
}

// Cache is one cache level. It implements mem.Memory.
type Cache struct {
	Name string

	eng  *sim.Engine
	cfg  config.Cache
	next mem.Memory

	banks []*sim.Resource
	sets  [][]line // [bank*cfg.Sets + set][way]
	clock uint64

	mshr map[uint64]*mshrEntry
	// overflow queues misses waiting for a free MSHR, oldest at
	// overflow[ovHead]. Popped slots are cleared and the storage is
	// reused, so a miss burst neither pins completed requests nor
	// reallocates the queue.
	overflow []*mem.Request
	ovHead   int

	lookups     sim.FreeList[lookup]
	mshrs       sim.FreeList[mshrEntry]
	writeAllocs sim.FreeList[writeAlloc]
	writebacks  sim.FreeList[writeback]

	// OnEvict, if set, observes every eviction (the ZnG access monitor).
	OnEvict func(EvictInfo)
	// OnDemandMiss, if set, observes demand read misses (the ZnG
	// predictor's cutoff test hooks here).
	OnDemandMiss func(*mem.Request)

	// Statistics.
	Hits, Misses, MergedMisses stats.Counter
	WriteHits, WriteMisses     stats.Counter
	Evictions, Writebacks      stats.Counter
	PrefEvicted, PrefUnused    stats.Counter
	PinnedNow                  int
}

// New creates a cache in front of next. next must not be nil.
func New(eng *sim.Engine, cfg config.Cache, next mem.Memory, name string) *Cache {
	if next == nil {
		panic("cache: next level must not be nil")
	}
	nb := cfg.Banks
	if nb < 1 {
		nb = 1
	}
	c := &Cache{
		Name: name,
		eng:  eng,
		cfg:  cfg,
		next: next,
		sets: make([][]line, nb*cfg.Sets),
		mshr: make(map[uint64]*mshrEntry),
	}
	// One backing array for every set: a single allocation, and
	// neighbouring sets stay adjacent in memory.
	lines := make([]line, len(c.sets)*cfg.Ways)
	for i := range c.sets {
		c.sets[i] = lines[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	c.banks = make([]*sim.Resource, nb)
	for i := range c.banks {
		c.banks[i] = sim.NewResource(eng)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() config.Cache { return c.cfg }

func (c *Cache) lineAddr(addr uint64) uint64 { return mem.LineAddr(addr, c.cfg.LineBytes) }

func (c *Cache) locate(lineAddr uint64) (bankIdx int, setIdx int) {
	g := lineAddr / uint64(c.cfg.LineBytes)
	nb := uint64(len(c.banks))
	bankIdx = int(g % nb)
	setIdx = int((g / nb) % uint64(c.cfg.Sets))
	return bankIdx, setIdx
}

func (c *Cache) set(lineAddr uint64) []line {
	b, s := c.locate(lineAddr)
	return c.sets[b*c.cfg.Sets+s]
}

// Access services r: hit, MSHR merge, or miss to the next level.
func (c *Cache) Access(r *mem.Request) {
	la := c.lineAddr(r.Addr)
	bankIdx, _ := c.locate(la)
	bank := c.banks[bankIdx]

	// One cycle of bank occupancy models the pipelined tag lookup; the
	// outcome is resolved when the bank slot is granted.
	l := c.lookups.Get()
	l.c, l.r, l.la = c, r, la
	bank.Acquire(1, l)
}

func (c *Cache) resolve(r *mem.Request, la uint64) {
	c.clock++
	set := c.set(la)
	way := findLine(set, la)

	if r.Write {
		c.resolveWrite(r, la, set, way)
		return
	}

	if way >= 0 {
		ln := &set[way]
		ln.accessed = true
		ln.stamp = c.clock
		c.Hits.Inc()
		c.eng.Post(c.cfg.ReadLat, r)
		return
	}

	// Read miss.
	c.Misses.Inc()
	if !r.Prefetch && c.OnDemandMiss != nil {
		c.OnDemandMiss(r)
	}
	if e, ok := c.mshr[la]; ok {
		c.MergedMisses.Inc()
		e.waiters = append(e.waiters, r)
		return
	}
	if len(c.mshr) >= c.cfg.MSHRs {
		c.pushOverflow(r)
		return
	}
	c.issueMiss(r, la)
}

func (c *Cache) resolveWrite(r *mem.Request, la uint64, set []line, way int) {
	if c.cfg.ReadOnly {
		// ZnG read-only L2: writes bypass the cache (they are absorbed
		// by the flash registers); a matching line is invalidated unless
		// pinned there by the thrashing checker, in which case the write
		// is absorbed by the pinned line (Section III-C).
		if way >= 0 && set[way].pinned {
			set[way].dirty = true
			set[way].stamp = c.clock
			c.WriteHits.Inc()
			c.eng.Post(c.cfg.WriteLat, r)
			return
		}
		if way >= 0 {
			set[way].valid = false
		}
		c.WriteMisses.Inc()
		c.next.Access(r)
		return
	}

	if way >= 0 {
		ln := &set[way]
		ln.stamp = c.clock
		ln.accessed = true
		c.WriteHits.Inc()
		if c.cfg.WriteBack {
			ln.dirty = true
			c.eng.Post(c.cfg.WriteLat, r)
		} else {
			// Write-through: update the line, forward the store.
			c.next.Access(r)
		}
		return
	}

	c.WriteMisses.Inc()
	if !c.cfg.WriteBack {
		// Write-through, no-allocate (GPU L1 policy).
		c.next.Access(r)
		return
	}
	// Write-allocate: fetch the line, then dirty it.
	w := c.writeAllocs.Get()
	w.c, w.r = c, r
	w.fill = mem.Request{
		Addr: la, Size: c.cfg.LineBytes, PC: r.PC, Warp: r.Warp, SM: r.SM,
		Issuer: w,
	}
	c.next.Access(&w.fill)
}

func (c *Cache) issueMiss(r *mem.Request, la uint64) {
	e := c.mshrs.Get()
	e.c = c
	e.waiters = append(e.waiters, r)
	e.fill = mem.Request{
		Addr: la, Size: c.cfg.LineBytes, PC: r.PC, Warp: r.Warp, SM: r.SM,
		Prefetch: r.Prefetch,
		Issuer:   e,
	}
	c.mshr[la] = e
	c.next.Access(&e.fill)
}

// fill completes an outstanding miss: installs the line, wakes the
// waiters, recycles the entry, and admits overflow misses into the
// freed MSHR.
func (c *Cache) fill(e *mshrEntry) {
	la := e.fill.Addr
	delete(c.mshr, la)
	c.install(la, false)
	for i, w := range e.waiters {
		c.eng.Post(c.cfg.ReadLat, w)
		e.waiters[i] = nil
	}
	e.waiters = e.waiters[:0]
	c.mshrs.Put(e)
	c.drainOverflow()
}

// pushOverflow queues a miss behind the full MSHR file, sliding the
// live entries to the front instead of growing when the head has
// advanced.
func (c *Cache) pushOverflow(r *mem.Request) {
	if len(c.overflow) == cap(c.overflow) && c.ovHead > 0 {
		n := copy(c.overflow, c.overflow[c.ovHead:])
		clear(c.overflow[n:])
		c.overflow, c.ovHead = c.overflow[:n], 0
	}
	c.overflow = append(c.overflow, r)
}

func (c *Cache) drainOverflow() {
	for c.ovHead < len(c.overflow) && len(c.mshr) < c.cfg.MSHRs {
		r := c.overflow[c.ovHead]
		c.overflow[c.ovHead] = nil
		c.ovHead++
		la := c.lineAddr(r.Addr)
		if w := findLine(c.set(la), la); w >= 0 {
			// Filled while queued: now a hit.
			c.Hits.Inc()
			c.eng.Post(c.cfg.ReadLat, r)
			continue
		}
		if e, ok := c.mshr[la]; ok {
			e.waiters = append(e.waiters, r)
			continue
		}
		c.issueMiss(r, la)
	}
	if c.ovHead == len(c.overflow) {
		c.overflow, c.ovHead = c.overflow[:0], 0
	}
}

// install places lineAddr into its set, evicting if necessary.
// Returns false if every way is pinned and the line was bypassed.
func (c *Cache) install(la uint64, asPrefetch bool) bool {
	c.clock++
	set := c.set(la)
	if w := findLine(set, la); w >= 0 {
		// Already present (e.g. prefetch raced a demand fill): merge bits.
		if !asPrefetch {
			set[w].accessed = true
		}
		set[w].stamp = c.clock
		return true
	}
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		var oldest uint64 = ^uint64(0)
		for i := range set {
			if set[i].pinned {
				continue
			}
			if set[i].stamp < oldest {
				oldest = set[i].stamp
				victim = i
			}
		}
	}
	if victim < 0 {
		return false // every way pinned: bypass
	}
	if set[victim].valid {
		c.evict(&set[victim])
	}
	set[victim] = line{
		tag: la, valid: true,
		prefetch: asPrefetch, accessed: !asPrefetch,
		stamp: c.clock,
	}
	return true
}

func (c *Cache) evict(ln *line) {
	c.Evictions.Inc()
	if ln.prefetch {
		c.PrefEvicted.Inc()
		if !ln.accessed {
			c.PrefUnused.Inc()
		}
	}
	if ln.dirty && c.cfg.WriteBack {
		c.Writebacks.Inc()
		wb := c.writebacks.Get()
		wb.c = c
		wb.req = mem.Request{Addr: ln.tag, Size: c.cfg.LineBytes, Write: true, Issuer: wb}
		c.next.Access(&wb.req)
	}
	if ln.pinned {
		c.PinnedNow--
	}
	if c.OnEvict != nil {
		c.OnEvict(EvictInfo{Addr: ln.tag, Prefetch: ln.prefetch, Accessed: ln.accessed, Dirty: ln.dirty})
	}
}

// InstallPrefetch installs a prefetched line (prefetch bit set,
// accessed bit clear). It reports whether the line was installed.
func (c *Cache) InstallPrefetch(addr uint64) bool {
	return c.install(c.lineAddr(addr), true)
}

// Contains reports whether addr's line is resident (for tests and the
// prefetch cutoff).
func (c *Cache) Contains(addr uint64) bool {
	la := c.lineAddr(addr)
	return findLine(c.set(la), la) >= 0
}

// PinDirty installs addr's line as pinned dirty data — the thrashing
// checker's L2 spill (Section III-C). It reports whether a way was
// available.
func (c *Cache) PinDirty(addr uint64) bool {
	la := c.lineAddr(addr)
	if !c.install(la, false) {
		return false
	}
	set := c.set(la)
	w := findLine(set, la)
	if !set[w].pinned {
		set[w].pinned = true
		c.PinnedNow++
	}
	set[w].dirty = true
	return true
}

// Unpin releases a pinned line so normal replacement applies again.
func (c *Cache) Unpin(addr uint64) {
	la := c.lineAddr(addr)
	set := c.set(la)
	if w := findLine(set, la); w >= 0 && set[w].pinned {
		set[w].pinned = false
		c.PinnedNow--
	}
}

// HitRate reports demand read hit rate.
func (c *Cache) HitRate() float64 {
	t := c.Hits.Value() + c.Misses.Value()
	if t == 0 {
		return 0
	}
	return float64(c.Hits.Value()) / float64(t)
}

func findLine(set []line, la uint64) int {
	for i := range set {
		if set[i].valid && set[i].tag == la {
			return i
		}
	}
	return -1
}
