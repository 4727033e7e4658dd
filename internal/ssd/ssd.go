// Package ssd models the SSD module that HybridGPU embeds behind the
// GPU L2 cache (Fig. 1a): a request dispatcher, the SSD engine (a few
// low-power embedded cores executing the page-mapped FTL firmware — the
// component Fig. 4d blames for 67% of HybridGPU's memory latency), a
// single-package DRAM read/write buffer on a 32-bit bus, and legacy
// shared-bus flash channels to the Z-NAND backbone.
package ssd

import (
	"zng/internal/config"
	"zng/internal/flash"
	"zng/internal/ftl"
	"zng/internal/mem"
	"zng/internal/noc"
	"zng/internal/sim"
	"zng/internal/stats"
)

// Module is the embedded SSD. It implements mem.Memory for 128 B GPU
// sector requests.
type Module struct {
	eng *sim.Engine
	cfg config.SSDEngine

	dispatch *sim.Resource
	engine   *sim.Pool
	bufPort  *sim.Port
	channels []*noc.Bus

	BB  *flash.Backbone
	FTL *ftl.PageMapped

	buf *pageBuffer

	reqs    sim.FreeList[request]
	flushes sim.FreeList[flush]

	// Statistics.
	BufHits, BufMisses stats.Counter
	Flushes            stats.Counter
	ReadFills          stats.Counter
}

// New assembles the module over its own Z-NAND backbone.
func New(eng *sim.Engine, ecfg config.SSDEngine, fcfg config.Flash, tcfg config.FTL) *Module {
	bb := flash.New(eng, fcfg)
	m := &Module{
		eng:      eng,
		cfg:      ecfg,
		dispatch: sim.NewResource(eng),
		engine:   sim.NewPool(eng, ecfg.Cores),
		bufPort:  sim.NewPort(eng, config.GBpsToBytesPerTick(ecfg.DRAMBufGBps), ecfg.DRAMBufLat),
		BB:       bb,
		FTL:      ftl.NewPageMapped(eng, bb, tcfg),
		buf:      newPageBuffer(int(ecfg.DRAMBufBytes / int64(fcfg.PageBytes))),
	}
	for i := 0; i < fcfg.Channels; i++ {
		m.channels = append(m.channels, noc.NewBus(eng, config.GBpsToBytesPerTick(fcfg.ChannelGBps), 2))
	}
	return m
}

// request carries one GPU sector request through the module; it is
// the event of each stage, and sensed (bound once per record) is the
// flash read's completion callback.
type request struct {
	m      *Module
	r      *mem.Request
	stage  stage
	page   uint64
	ch     *noc.Bus // the sensed page's channel, fixed at sense time
	sensed func()
}

type stage uint8

const (
	dispatched stage = iota // the dispatcher has queued the request
	translated              // the engine firmware has run
	moved                   // the sensed page crossed the channel
)

// Access services one GPU sector request: dispatcher queueing, engine
// firmware time, then buffer hit or flash fill.
func (m *Module) Access(r *mem.Request) {
	q := m.reqs.Get()
	if q.sensed == nil {
		q.sensed = q.onSensed
	}
	q.m, q.r, q.stage = m, r, dispatched
	m.dispatch.Acquire(m.cfg.DispatchLat, q)
}

// Fire advances the request past its current stage.
func (q *request) Fire() {
	m := q.m
	switch q.stage {
	case dispatched:
		q.stage = translated
		m.engine.Acquire(m.cfg.FTLLatPerReq, q)
	case translated:
		m.afterEngine(q)
	case moved:
		m.insert(q.page, false)
		m.serve(q)
	}
}

// onSensed moves the sensed page over the legacy channel bus.
func (q *request) onSensed() {
	q.stage = moved
	q.ch.Send(q.m.BB.Cfg.PageBytes, q)
}

// serve moves the sector over the buffer bus, completing the request
// on arrival, and recycles the record.
func (m *Module) serve(q *request) {
	r := q.r
	q.r, q.ch = nil, nil
	m.reqs.Put(q)
	m.bufPort.Send(r.Size, r)
}

func (m *Module) afterEngine(q *request) {
	r := q.r
	page := mem.PageAddr(r.Addr, m.BB.Cfg.PageBytes)
	if m.buf.touch(page, r.Write) {
		m.BufHits.Inc()
		m.serve(q)
		return
	}
	m.BufMisses.Inc()

	if r.Write {
		// Write-allocate without fetch: the buffer page will be flushed
		// whole. (Flash pages are written as units; sub-page residue is
		// folded into the flush.)
		m.insert(page, true)
		m.serve(q)
		return
	}

	// Read fill: sense the page from its plane, move it over the legacy
	// channel bus, install, then serve the sector from the buffer.
	m.ReadFills.Inc()
	loc := m.FTL.Lookup(page)
	q.page, q.ch = page, m.channels[m.BB.ChannelOf(loc.Plane)]
	m.BB.Plane(loc.Plane).Read(loc.Block, loc.Page, q.sensed)
}

// flush is a dirty buffer page on its way back to flash.
type flush struct {
	m      *Module
	victim uint64
}

// Fire runs once the engine has prepared the program.
func (f *flush) Fire() {
	m, victim := f.m, f.victim
	m.flushes.Put(f)
	m.FTL.WritePage(victim, nil)
	// The channel transfer overlaps the program; charge its occupancy.
	cur := m.FTL.Lookup(victim)
	m.channels[m.BB.ChannelOf(cur.Plane)].Send(m.BB.Cfg.PageBytes, nil)
}

// insert adds a page to the buffer, flushing a dirty victim to flash.
func (m *Module) insert(page uint64, dirty bool) {
	victim, vdirty, evicted := m.buf.insert(page, dirty)
	if !evicted || !vdirty {
		return
	}
	m.Flushes.Inc()
	// Flush: engine prepares the program, channel moves the page, plane
	// programs it.
	f := m.flushes.Get()
	f.m, f.victim = m, victim
	m.engine.Acquire(m.cfg.FTLLatPerReq, f)
}

// EngineBusyTicks reports cumulative firmware occupancy (Fig. 4d).
func (m *Module) EngineBusyTicks() sim.Tick { return m.engine.BusyTicks() }

// BufferBusyTicks reports DRAM-buffer bus occupancy.
func (m *Module) BufferBusyTicks() sim.Tick { return m.bufPort.BusyTicks() }

// ChannelBytes reports total bytes moved over the legacy channels.
func (m *Module) ChannelBytes() uint64 {
	var n uint64
	for _, c := range m.channels {
		n += c.Bytes.Value()
	}
	return n
}

// pageBuffer is the page-granularity LRU read/write buffer held in the
// module's internal DRAM.
type pageBuffer struct {
	cap     int
	clock   uint64
	entries map[uint64]bufEntry // by value: an insert allocates nothing
}

type bufEntry struct {
	stamp uint64
	dirty bool
}

func newPageBuffer(capacity int) *pageBuffer {
	if capacity < 1 {
		capacity = 1
	}
	return &pageBuffer{cap: capacity, entries: make(map[uint64]bufEntry)}
}

// touch reports a hit, refreshing LRU state and dirtying on writes.
func (b *pageBuffer) touch(page uint64, write bool) bool {
	e, ok := b.entries[page]
	if !ok {
		return false
	}
	b.clock++
	e.stamp = b.clock
	if write {
		e.dirty = true
	}
	b.entries[page] = e
	return true
}

// insert adds a page, evicting the LRU entry if full. It returns the
// victim and its dirtiness.
func (b *pageBuffer) insert(page uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	b.clock++
	if e, ok := b.entries[page]; ok {
		e.stamp = b.clock
		e.dirty = e.dirty || dirty
		b.entries[page] = e
		return 0, false, false
	}
	if len(b.entries) >= b.cap {
		oldest := ^uint64(0)
		for p, e := range b.entries {
			if e.stamp < oldest {
				oldest = e.stamp
				victim = p
			}
		}
		victimDirty = b.entries[victim].dirty
		delete(b.entries, victim)
		evicted = true
	}
	b.entries[page] = bufEntry{stamp: b.clock, dirty: dirty}
	return victim, victimDirty, evicted
}

// Len reports resident pages (tests).
func (b *pageBuffer) Len() int { return len(b.entries) }
