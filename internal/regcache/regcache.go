// Package regcache implements ZnG's write optimization (Sections
// III-C and IV-C): the cache registers of every plane in a Z-NAND
// package are grouped into one fully-associative write cache, so the
// 128 B store traffic of the GPU — which rewrites the same flash pages
// ~65x (Fig. 5c) — is absorbed in registers and folded into far fewer
// page programs.
//
// Three register interconnects are modeled for the ablation of
// Fig. 8c/9:
//
//   - SWnet: a register reaches a remote plane by bouncing through the
//     flash-network router (two transfers that consume flash-network
//     bandwidth, contending with demand reads).
//   - FCnet: a fully-connected point-to-point web — no contention, but
//     (in hardware) enormous wiring cost.
//   - NiF (Network-in-Flash, the paper's design): shared I/O-path and
//     data-path buses per plane group plus a local network between
//     data registers, so migrations stay inside the package and off
//     the flash network.
//
// A thrashing checker watches the register miss rate; when registers
// thrash, evicted dirty pages are pinned into spare L2 ways instead of
// programming flash (Section III-C).
package regcache

import (
	"zng/internal/config"
	"zng/internal/flash"
	"zng/internal/ftl"
	"zng/internal/noc"
	"zng/internal/sim"
	"zng/internal/stats"
)

// SectorBytes is the GPU store granularity.
const SectorBytes = 128

// PinSink pins dirty lines into a cache (implemented by *cache.Cache).
type PinSink interface {
	PinDirty(addr uint64) bool
}

type regEntry struct {
	stamp    uint64
	sectors  uint64 // coverage bitmap
	regPlane int    // plane whose physical register holds the data
}

type pkg struct {
	id      int
	cap     int
	clock   uint64
	entries map[uint64]regEntry // vpage -> entry
	owner   map[int][]uint64    // per-plane mode: plane -> resident vpages
	local   *sim.Port           // NiF local network
	rr      int

	window, misses int
	thrashing      bool
}

// Cache is the backbone-wide register write cache.
type Cache struct {
	eng   *sim.Engine
	cfg   config.RegCache
	bb    *flash.Backbone
	split *ftl.Split
	mesh  *noc.Mesh // SWnet migrations; nil otherwise
	l2    PinSink   // thrash spill target; nil disables the checker

	pkgs        []*pkg
	unbuffered  bool // ZnG-base: no write caching at all
	perPlaneDir bool // one open register per plane, no grouping
	pinnedLines int

	// Statistics.
	Hits        stats.Counter
	Allocs      stats.Counter
	Evictions   stats.Counter
	Programs    stats.Counter
	RMWReads    stats.Counter
	Migrations  stats.Counter
	PinnedPages stats.Counter
	ReadHits    stats.Counter
}

// Options configure New.
type Options struct {
	// Unbuffered selects the ZnG-base behaviour: registers are plain
	// staging buffers with no caching policy, so every sector store
	// costs a read-modify-write of its page plus a log program
	// (Section V-A: ZnG-base has neither read nor write optimization).
	Unbuffered bool
	// PerPlaneDirect keeps the grouping off but gives each plane one
	// open register that absorbs consecutive stores to the same page —
	// the intermediate design point of the write ablation.
	PerPlaneDirect bool
	// Mesh is required for the SWnet interconnect.
	Mesh *noc.Mesh
	// L2 enables the thrashing checker's pin-to-L2 spill.
	L2 PinSink
}

// New builds the register cache over a backbone and its split FTL.
func New(eng *sim.Engine, cfg config.RegCache, bb *flash.Backbone, split *ftl.Split, opt Options) *Cache {
	c := &Cache{
		eng: eng, cfg: cfg, bb: bb, split: split,
		mesh: opt.Mesh, l2: opt.L2,
		unbuffered: opt.Unbuffered, perPlaneDir: opt.PerPlaneDirect,
	}
	planesPerPkg := bb.Cfg.DiesPerPkg * bb.Cfg.PlanesPerDie
	for i := 0; i < bb.Packages(); i++ {
		capacity := planesPerPkg * bb.Cfg.RegsPerPlane
		if opt.PerPlaneDirect {
			capacity = planesPerPkg
		}
		c.pkgs = append(c.pkgs, &pkg{
			id:      i,
			cap:     capacity,
			entries: make(map[uint64]regEntry),
			owner:   make(map[int][]uint64),
			local:   sim.NewPort(eng, config.GBpsToBytesPerTick(cfg.LocalNetGBps), cfg.BusLat),
		})
	}
	return c
}

func (c *Cache) vpage(va uint64) uint64 { return va / uint64(c.bb.Cfg.PageBytes) }

// fullMask covers every sector of one flash page.
func (c *Cache) fullMask() uint64 {
	return uint64(1)<<(c.bb.Cfg.PageBytes/SectorBytes) - 1
}

func (c *Cache) sectorBit(va uint64) uint64 {
	return 1 << ((va / SectorBytes) % (uint64(c.bb.Cfg.PageBytes) / SectorBytes))
}

// pkgOf returns the package whose registers absorb va's writes: the
// one containing the target page's home plane.
func (c *Cache) pkgOf(va uint64) (*pkg, int) {
	vb, _ := c.split.VBlock(va)
	plane := c.split.PlaneOf(vb)
	return c.pkgs[c.bb.PackageOf(plane)], plane
}

// ReadCheck reports whether the newest version of va's sector sits in
// a register (the read path must check before going to the array).
func (c *Cache) ReadCheck(va uint64) bool {
	p, _ := c.pkgOf(va)
	e, ok := p.entries[c.vpage(va)]
	hit := ok && e.sectors&c.sectorBit(va) != 0
	if hit {
		c.ReadHits.Inc()
	}
	return hit
}

// Write absorbs one sector store. h (if non-nil) fires when the store
// is durable in a register — immediately on a hit or clean
// allocation, or after the eviction it forced has drained to flash
// (the backpressure of a thrashing register file).
func (c *Cache) Write(va uint64, h sim.Handler) {
	p, target := c.pkgOf(va)
	vp := c.vpage(va)
	p.clock++
	p.window++

	if c.unbuffered {
		// ZnG-base: read-modify-write the page through a staging
		// register and program it to the log immediately.
		c.Allocs.Inc()
		c.Evictions.Inc()
		c.evict(p, vp, regEntry{sectors: c.sectorBit(va), regPlane: target}, c.drained(h))
		return
	}

	if e, ok := p.entries[vp]; ok {
		e.sectors |= c.sectorBit(va)
		e.stamp = p.clock
		p.entries[vp] = e
		c.Hits.Inc()
		c.endWindow(p)
		c.eng.Post(c.cfg.BusLat, h)
		return
	}

	c.Allocs.Inc()
	p.misses++
	c.endWindow(p)

	if c.perPlaneDir {
		// Per-plane mode: each plane's RegsPerPlane registers hold open
		// write pages privately — no grouping across planes.
		list := p.owner[target]
		if len(list) >= c.bb.Cfg.RegsPerPlane {
			// Evict the plane's LRU page.
			lru := 0
			for i, cand := range list {
				if p.entries[cand].stamp < p.entries[list[lru]].stamp {
					lru = i
				}
			}
			victimVP := list[lru]
			prev := p.entries[victimVP]
			delete(p.entries, victimVP)
			list = append(list[:lru], list[lru+1:]...)
			c.evict(p, victimVP, prev, c.drained(h))
		} else {
			c.eng.Post(c.cfg.BusLat, h)
		}
		p.entries[vp] = regEntry{stamp: p.clock, sectors: c.sectorBit(va), regPlane: target}
		p.owner[target] = append(list, vp)
		return
	}

	// Grouped mode: fully-associative across the package's registers.
	if len(p.entries) >= p.cap {
		victimVP, victim := lruVictim(p)
		delete(p.entries, victimVP)
		c.evict(p, victimVP, victim, c.drained(h))
	} else {
		c.eng.Post(c.cfg.BusLat, h)
	}
	planesPerPkg := c.bb.Cfg.DiesPerPkg * c.bb.Cfg.PlanesPerDie
	regPlane := p.id*planesPerPkg + p.rr%planesPerPkg
	p.rr++
	p.entries[vp] = regEntry{stamp: p.clock, sectors: c.sectorBit(va), regPlane: regPlane}
}

// drained returns the callback of an eviction a store forced: the
// store is acknowledged one bus hop after the victim drains. It is
// built only when an eviction happens.
func (c *Cache) drained(h sim.Handler) func() {
	return func() { c.eng.Post(c.cfg.BusLat, h) }
}

func lruVictim(p *pkg) (uint64, regEntry) {
	var vp uint64
	var e regEntry
	oldest := ^uint64(0)
	for k, v := range p.entries {
		if v.stamp < oldest {
			oldest = v.stamp
			vp, e = k, v
		}
	}
	return vp, e
}

// evict drains one register entry: pin to L2 under thrashing, or
// read-modify-write + migrate + program.
func (c *Cache) evict(p *pkg, vp uint64, e regEntry, done func()) {
	c.Evictions.Inc()
	va := vp * uint64(c.bb.Cfg.PageBytes)

	if p.thrashing && c.l2 != nil && c.pinnedLines+32 <= c.cfg.PinLines {
		// Spill the dirty page into pinned L2 lines.
		lines := c.bb.Cfg.PageBytes / 128
		for i := 0; i < lines; i++ {
			if c.l2.PinDirty(va + uint64(i)*128) {
				c.pinnedLines++
			}
		}
		c.PinnedPages.Inc()
		if done != nil {
			c.eng.Schedule(c.cfg.BusLat, done)
		}
		return
	}

	vb, _ := c.split.VBlock(va)
	target := c.split.PlaneOf(vb)

	program := func() {
		c.Programs.Inc()
		c.split.WritePage(va, done)
	}
	migrate := func() {
		if e.regPlane == target {
			program()
			return
		}
		c.Migrations.Inc()
		c.migrate(p, program)
	}
	if e.sectors != c.fullMask() {
		// Partial page: read the current version to merge (RMW).
		c.RMWReads.Inc()
		loc := c.split.ReadLoc(va)
		c.bb.Plane(loc.Plane).Read(loc.Block, loc.Page, migrate)
		return
	}
	migrate()
}

// migrate moves a page between registers of the same package over the
// configured interconnect.
func (c *Cache) migrate(p *pkg, fn func()) {
	page := c.bb.Cfg.PageBytes
	switch c.cfg.Net {
	case config.SWnet:
		// Register -> controller buffer -> remote register: two flash-
		// network transfers through the package's router.
		c.mesh.Send(p.id, p.id, page, sim.Func(func() {
			c.mesh.Send(p.id, p.id, page, sim.Handle(fn))
		}))
	case config.FCnet:
		// Dedicated point-to-point wire: latency only.
		c.eng.Schedule(c.cfg.BusLat, fn)
	default: // NiF
		p.local.Send(page, sim.Handle(fn))
	}
}

// endWindow runs the thrashing checker at window boundaries.
func (c *Cache) endWindow(p *pkg) {
	if p.window < c.cfg.ThrashWindow {
		return
	}
	p.thrashing = float64(p.misses)/float64(p.window) > c.cfg.ThrashRatio
	p.window, p.misses = 0, 0
}

// DirtyPages reports pages currently held in registers.
func (c *Cache) DirtyPages() int {
	n := 0
	for _, p := range c.pkgs {
		n += len(p.entries)
	}
	return n
}

// Thrashing reports whether any package is currently in thrash mode.
func (c *Cache) Thrashing() bool {
	for _, p := range c.pkgs {
		if p.thrashing {
			return true
		}
	}
	return false
}
