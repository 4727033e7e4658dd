package platform

import (
	"zng/internal/cache"
	"zng/internal/config"
	"zng/internal/flash"
	"zng/internal/ftl"
	"zng/internal/gpu"
	"zng/internal/mem"
	"zng/internal/mmu"
	"zng/internal/noc"
	"zng/internal/prefetch"
	"zng/internal/regcache"
	"zng/internal/sim"
	"zng/internal/stats"
)

// rowDecoderLat is the two-phase CAM search of the programmable row
// decoder (Section IV-A), charged on every flash-side read resolution.
const rowDecoderLat sim.Tick = 8

// buildZnG assembles the four ZnG variants of Section V-A. The shared
// skeleton (Fig. 6a): flash controllers attach directly to the GPU
// interconnect; the MMU performs DBMT translation (zero-overhead FTL);
// an 8 B-link mesh replaces the legacy flash channels; log-block row
// decoders remap writes.
//
//	ZnG-base : 6 MB SRAM write-back L2, per-plane direct registers.
//	ZnG-rdopt: 24 MB STT-MRAM read-only L2 + dynamic prefetch.
//	ZnG-wropt: grouped register write cache over NiF + thrash checker.
//	ZnG      : rdopt + wropt.
func buildZnG(eng *sim.Engine, kind Kind, cfg config.Config) *system {
	rdopt := kind == ZnGRdopt || kind == ZnG
	wropt := kind == ZnGWropt || kind == ZnG

	// ZnG variants run with the full 8-register planes; base keeps the
	// stock two (Table I).
	fcfg := cfg.Flash
	if wropt {
		fcfg.RegsPerPlane = 8
	}

	bb := flash.New(eng, fcfg)
	split := ftl.NewSplit(eng, bb, cfg.FTL)
	mesh := noc.NewMesh(eng, fcfg.MeshDim, config.GBpsToBytesPerTick(fcfg.MeshLinkGBps), fcfg.MeshHopLat)
	xbar := noc.NewXbar(eng, bb.Packages(), 32, 8)

	// Zero-overhead FTL: the DBMT lives in the MMU, so a TLB miss costs
	// only the in-SRAM block-map lookup.
	u := mmu.New(eng, cfg.MMU, cfg.GPU.SMs, cfg.MMU.DBMTLatency)
	u.Translate = func(va uint64) uint64 { return va }

	ctl := &zngController{
		eng: eng, bb: bb, split: split, mesh: mesh, xbar: xbar,
		camLat:       rowDecoderLat,
		sensePending: make(map[uint64]*sense),
		readRegs:     make([]pageRing, bb.Planes()),
	}
	// At most two registers double-buffer reads; the rest (if any)
	// belong to the write cache.
	readRing := fcfg.RegsPerPlane
	if readRing > 2 {
		readRing = 2
	}
	for i := range ctl.readRegs {
		ctl.readRegs[i] = newPageRing(readRing)
	}

	l2cfg := cfg.L2SRAM
	if rdopt {
		l2cfg = cfg.L2STT
	}
	l2 := cache.New(eng, l2cfg, ctl, "L2")

	if rdopt {
		pf := prefetch.New(cfg.Prefetch)
		ctl.pf = pf
		ctl.l2 = l2
		l2.OnEvict = pf.OnEvict
	}

	// Without the write optimization, each plane's registers act as
	// plain per-plane staging buffers (Section III-C: the limited
	// per-plane registers "may not be sufficient... based on workload
	// execution behaviors" — grouping them is wropt's contribution).
	opts := regcache.Options{PerPlaneDirect: !wropt, Mesh: mesh}
	rcfg := cfg.RegCache
	if wropt {
		opts.L2 = l2
	}
	ctl.regs = regcache.New(eng, rcfg, bb, split, opts)

	g := gpu.New(eng, cfg.GPU, cfg.L1, u, l2)
	return &system{
		eng: eng, cfg: cfg, mmu: u, l2: l2, gpu: g,
		collectExtra: func(r *Result) {
			cyc := g.Cycles()
			r.FlashReadGBps = gbps(bb.TotalBytesRead(), cyc)
			r.FlashWriteGBps = gbps(bb.TotalBytesProgrammed(), cyc)
			r.PlaneWrites = planeWrites(bb)
			r.Extra["reg_hits"] = float64(ctl.regs.Hits.Value())
			r.Extra["reg_evictions"] = float64(ctl.regs.Evictions.Value())
			r.Extra["reg_read_hits"] = float64(ctl.regs.ReadHits.Value())
			r.Extra["reg_migrations"] = float64(ctl.regs.Migrations.Value())
			r.Extra["pinned_pages"] = float64(ctl.regs.PinnedPages.Value())
			r.Extra["log_programs"] = float64(split.LogPrograms.Value())
			r.Extra["gc_merges"] = float64(split.Merges.Value())
			r.Extra["stalled_writes"] = float64(split.StalledWrites.Value())
			r.Extra["mesh_bytes"] = float64(mesh.Bytes.Value())
			r.Extra["demand_fills"] = float64(ctl.DemandFills.Value())
			r.Extra["prefetch_bytes"] = float64(ctl.PrefetchBytes.Value())
			r.Extra["reg_page_hits"] = float64(ctl.RegReadHits.Value())
			r.Extra["sense_merges"] = float64(ctl.SenseMerges.Value())
			r.Extra["translation_state_bytes"] = float64(split.StateBytes() + u.StateBytes())
			r.Extra["mapped_pages"] = float64(split.MappedPages())
			if ctl.pf != nil {
				r.Extra["prefetch_issued"] = float64(ctl.pf.Issued.Value())
				r.Extra["prefetch_gran"] = float64(ctl.pf.Granularity())
			}
		},
	}
}

// zngController is the per-channel flash controller array of Fig. 6a:
// it accepts L2 fill and write-back requests from the GPU crossbar,
// resolves them through the split FTL and register cache, and moves
// data over the flash mesh.
type zngController struct {
	eng    *sim.Engine
	bb     *flash.Backbone
	split  *ftl.Split
	regs   *regcache.Cache
	mesh   *noc.Mesh
	xbar   *noc.Xbar
	camLat sim.Tick

	// Read optimization (nil when rdopt is off).
	pf *prefetch.Unit
	l2 *cache.Cache

	// sensePending merges concurrent fills of one flash page into a
	// single array sense; readRegs model the plane cache registers
	// holding recently sensed pages (Section II-B), which serve
	// repeated reads without touching the array again.
	sensePending map[uint64]*sense
	readRegs     []pageRing

	reqs   sim.FreeList[zngReq]
	senses sim.FreeList[sense]

	DemandFills   stats.Counter
	PrefetchBytes stats.Counter
	RegReadHits   stats.Counter
	SenseMerges   stats.Counter
}

// pageRing is a tiny LRU of sensed pages (one per plane register).
type pageRing struct {
	pages []uint64
}

func newPageRing(n int) pageRing {
	if n < 1 {
		n = 1
	}
	return pageRing{pages: make([]uint64, 0, n)}
}

func (r *pageRing) contains(page uint64) bool {
	for _, p := range r.pages {
		if p == page {
			return true
		}
	}
	return false
}

func (r *pageRing) push(page uint64) {
	if r.contains(page) {
		return
	}
	if len(r.pages) == cap(r.pages) {
		copy(r.pages, r.pages[1:])
		r.pages = r.pages[:len(r.pages)-1]
	}
	r.pages = append(r.pages, page)
}

// node returns the mesh/crossbar endpoint owning va's home plane.
func (z *zngController) node(va uint64) int {
	vb, _ := z.split.VBlock(va)
	return z.bb.PackageOf(z.split.PlaneOf(vb))
}

// zngReq carries one request through the controller; it is the event
// of each hop.
type zngReq struct {
	z     *zngController
	r     *mem.Request
	n     int // mesh/crossbar node of the request's home plane
	stage zngStage
}

type zngStage uint8

const (
	storeArrived zngStage = iota // a store crossed the crossbar
	readArrived                  // a read command crossed the crossbar
	camResolved                  // the row decoder's CAM search is done
	delivered                    // the fill crossed the mesh
)

// Access implements mem.Memory for L2 fills (reads) and write-backs /
// write-throughs (stores).
func (z *zngController) Access(r *mem.Request) {
	q := z.reqs.Get()
	q.z, q.r, q.n = z, r, z.node(r.Addr)
	if r.Write {
		// Stores ride the crossbar to the controller, then enter the
		// register cache.
		q.stage = storeArrived
		z.xbar.Send(q.n, r.Size, q)
		return
	}
	// Reads: command packet to the controller first.
	q.stage = readArrived
	z.xbar.Send(q.n, 16, q)
}

// Fire advances the request past the hop it just finished.
func (q *zngReq) Fire() {
	z := q.z
	switch q.stage {
	case storeArrived:
		r := z.release(q)
		z.regs.Write(r.Addr, r)
	case readArrived:
		z.read(q)
	case camResolved:
		z.resolve(q)
	case delivered:
		r := z.release(q)
		if r.Size > 128 && z.l2 != nil {
			ext := r.Size - 128
			z.PrefetchBytes.Add(uint64(ext))
			for off := 128; off < r.Size; off += 128 {
				z.l2.InstallPrefetch(r.Addr + uint64(off))
			}
		}
		r.Complete()
	}
}

// release recycles q and returns its request.
func (z *zngController) release(q *zngReq) *mem.Request {
	r := q.r
	q.r = nil
	z.reqs.Put(q)
	return r
}

func (z *zngController) read(q *zngReq) {
	r, n := q.r, q.n
	// Newest data may still sit in a flash write register.
	if z.regs.ReadCheck(r.Addr) {
		z.release(q)
		z.mesh.Send(n, n, r.Size, r)
		return
	}

	// Predictor update and cutoff test happen at miss time (Fig. 8a).
	if z.pf != nil && !r.Prefetch {
		if ext := z.pf.OnMiss(r); ext > 0 {
			r.Prefetch = false // demand request with a widened transfer
			r.Size += z.planPrefetch(r, ext)
		}
	}

	// A sense for this page already in flight: piggyback on it.
	if z.mergeSense(q) {
		return
	}

	// The page may still sit in one of the plane's cache registers.
	q.stage = camResolved
	z.eng.Post(z.camLat, q)
}

// mergeSense piggybacks q on an in-flight sense of its page.
func (z *zngController) mergeSense(q *zngReq) bool {
	sn, ok := z.sensePending[mem.PageAddr(q.r.Addr, z.bb.Cfg.PageBytes)]
	if ok {
		z.SenseMerges.Inc()
		sn.waiters = append(sn.waiters, q)
	}
	return ok
}

// resolve runs after the CAM search: serve from a plane cache
// register, join a sense that started meanwhile, or sense the page.
func (z *zngController) resolve(q *zngReq) {
	r := q.r
	page := mem.PageAddr(r.Addr, z.bb.Cfg.PageBytes)
	loc := z.split.ReadLoc(r.Addr)
	if z.readRegs[loc.Plane].contains(page) {
		z.RegReadHits.Inc()
		z.deliver(q)
		return
	}
	if z.mergeSense(q) {
		return
	}
	sn := z.senses.Get()
	if sn.done == nil {
		sn.done = sn.sensed
	}
	sn.z, sn.page, sn.plane = z, page, loc.Plane
	sn.waiters = append(sn.waiters, q)
	z.sensePending[page] = sn
	z.DemandFills.Inc()
	z.bb.Plane(loc.Plane).Read(loc.Block, loc.Page, sn.done)
}

// sense is one flash array read in flight and the fills merged onto
// it; done is its bound completion callback.
type sense struct {
	z       *zngController
	page    uint64
	plane   int
	waiters []*zngReq
	done    func()
}

// sensed latches the page into a plane register and delivers every
// merged fill.
func (sn *sense) sensed() {
	z := sn.z
	z.readRegs[sn.plane].push(sn.page)
	delete(z.sensePending, sn.page)
	for i, q := range sn.waiters {
		sn.waiters[i] = nil
		z.deliver(q)
	}
	sn.waiters = sn.waiters[:0]
	z.senses.Put(sn)
}

// deliver moves a (possibly prefetch-widened) fill over the mesh; the
// delivered stage installs any extra lines into L2.
func (z *zngController) deliver(q *zngReq) {
	q.stage = delivered
	z.mesh.Send(q.n, q.n, q.r.Size, q)
}

// planPrefetch clamps a prefetch extent to the flash page end.
func (z *zngController) planPrefetch(r *mem.Request, ext int) int {
	pageEnd := mem.PageAddr(r.Addr, z.bb.Cfg.PageBytes) + uint64(z.bb.Cfg.PageBytes)
	if r.Addr+uint64(128+ext) > pageEnd {
		ext = int(pageEnd - r.Addr - 128)
	}
	if ext < 0 {
		ext = 0
	}
	return ext
}

// planeWrites flattens per-plane program counts for the Fig. 8b
// heatmap.
func planeWrites(bb *flash.Backbone) []uint64 {
	out := make([]uint64, bb.Planes())
	for i := range out {
		out[i] = bb.Plane(i).Programs
	}
	return out
}
