// Package gpu models the streaming multiprocessors of the simulated
// GTX580-class GPU (Table I): 16 SMs at 1.2 GHz, up to 80 resident
// warps each, one instruction issued per SM per cycle, a private L1D
// per SM, and address translation through the shared MMU before the
// caches (Section II-A).
//
// The model is warp-level and event-driven: arithmetic runs occupy the
// SM issue pipeline for their run length (other warps fill the gaps,
// which is how thread-level parallelism hides memory latency), and a
// warp blocks until its memory instruction's coalesced sectors all
// complete. IPC is instructions retired over elapsed cycles — the
// metric Fig. 10 normalizes.
//
// A warp is its own engine event, and each memory instruction and
// each of its coalesced accesses is a pooled record, so issuing and
// completing memory instructions allocates nothing in the steady
// state.
package gpu

import (
	"zng/internal/cache"
	"zng/internal/config"
	"zng/internal/mem"
	"zng/internal/mmu"
	"zng/internal/sim"
	"zng/internal/stats"
	"zng/internal/workload"
)

// GPU is the multiprocessor array plus per-SM L1 caches.
type GPU struct {
	eng *sim.Engine
	cfg config.GPU
	mmu *mmu.Unit
	l1s []*cache.Cache

	sms  []*sm
	apps []*appRun

	insts    sim.FreeList[memInst]
	accesses sim.FreeList[access]

	Insts   stats.Counter
	start   sim.Tick
	end     sim.Tick
	running int

	// OnFinish, if set, fires when every launched app completes.
	OnFinish func()
}

type sm struct {
	id    int
	issue *sim.Resource
}

type appRun struct {
	g      *GPU
	app    *workload.App
	smIDs  []int
	kernel int
	live   int // running warps in the current kernel
}

// New builds a GPU whose SMs translate through mmuU and access l1cfg
// caches backed by l2.
func New(eng *sim.Engine, cfg config.GPU, l1cfg config.Cache, mmuU *mmu.Unit, l2 mem.Memory) *GPU {
	g := &GPU{eng: eng, cfg: cfg, mmu: mmuU}
	for i := 0; i < cfg.SMs; i++ {
		g.sms = append(g.sms, &sm{id: i, issue: sim.NewResource(eng)})
		g.l1s = append(g.l1s, cache.New(eng, l1cfg, l2, "L1D"))
	}
	return g
}

// L1 returns SM i's private L1D (tests, statistics).
func (g *GPU) L1(i int) *cache.Cache { return g.l1s[i] }

// Launch starts the given applications concurrently, partitioning the
// SMs evenly among them (the multi-app co-run of Section V-A). It must
// be called once, before the engine runs.
func (g *GPU) Launch(apps ...*workload.App) {
	if len(apps) == 0 || len(apps) > len(g.sms) {
		panic("gpu: need between 1 and SMs applications")
	}
	g.start = g.eng.Now()
	per := len(g.sms) / len(apps)
	for i, a := range apps {
		run := &appRun{g: g, app: a}
		lo := i * per
		hi := lo + per
		if i == len(apps)-1 {
			hi = len(g.sms)
		}
		for s := lo; s < hi; s++ {
			run.smIDs = append(run.smIDs, s)
		}
		g.apps = append(g.apps, run)
		g.running++
	}
	for _, run := range g.apps {
		run.startKernel()
	}
}

// Cycles reports elapsed cycles from launch to the last app's finish
// (or now, while running).
func (g *GPU) Cycles() sim.Tick {
	if g.running == 0 && g.end > g.start {
		return g.end - g.start
	}
	return g.eng.Now() - g.start
}

// IPC reports retired instructions per cycle across all SMs.
func (g *GPU) IPC() float64 {
	c := g.Cycles()
	if c == 0 {
		return 0
	}
	return float64(g.Insts.Value()) / float64(c)
}

// Done reports whether every launched app has finished.
func (g *GPU) Done() bool { return g.running == 0 && len(g.apps) > 0 }

// Fire launches the next kernel after a barrier.
func (r *appRun) Fire() { r.startKernel() }

func (r *appRun) startKernel() {
	warps := r.app.Warps()
	r.live = warps
	for w := 0; w < warps; w++ {
		smID := r.smIDs[w%len(r.smIDs)]
		wc := &warpCtx{
			run:    r,
			sm:     r.g.sms[smID],
			stream: r.app.Stream(r.kernel, w),
			id:     r.app.Index<<20 | r.kernel<<10 | w,
		}
		// Stagger warp starts by a cycle to avoid a synchronized stampede.
		r.g.eng.Post(sim.Tick(w%workload.SectorBytes), wc)
	}
}

func (r *appRun) warpDone() {
	r.live--
	if r.live > 0 {
		return
	}
	r.kernel++
	if r.kernel < r.app.Kernels() {
		// Kernel barrier: the next launch begins once all warps retire.
		r.g.eng.Post(1, r)
		return
	}
	r.g.running--
	if r.g.running == 0 {
		r.g.end = r.g.eng.Now()
		if r.g.OnFinish != nil {
			r.g.OnFinish()
		}
	}
}

type warpCtx struct {
	run    *appRun
	sm     *sm
	stream *workload.Stream
	id     int

	// pendingMem counts memory instructions in flight; a warp stalls
	// only once it reaches cfg.MaxPerWarpMem outstanding (real SMs
	// let a warp run ahead until a use-dependency).
	pendingMem int
	blocked    bool
	draining   bool

	// issuing marks an instruction in the issue pipeline: the warp's
	// next event retires it rather than stepping. acc and pc are its
	// memory accesses, if any.
	issuing bool
	acc     []workload.Access
	pc      uint64
}

// Fire is the warp's one engine event: it retires the instruction in
// the issue pipeline, or fetches the next one. A warp never has both
// pending at once.
func (w *warpCtx) Fire() {
	if w.issuing {
		w.issuing = false
		w.issued()
		return
	}
	w.step()
}

// step fetches the warp's next instruction into the issue pipeline.
func (w *warpCtx) step() {
	g := w.run.g
	inst, ok := w.stream.Next()
	if !ok {
		if w.pendingMem > 0 {
			w.draining = true
			return
		}
		w.run.warpDone()
		return
	}
	// The arithmetic run plus the memory instruction occupy the issue
	// pipeline; each slot is one retired instruction.
	cost := sim.Tick(inst.ALU)
	insts := inst.ALU
	if len(inst.Acc) > 0 {
		cost++
		insts++
	}
	if cost < 1 {
		cost, insts = 1, 1
	}
	g.Insts.Add(uint64(insts))
	w.acc, w.pc = inst.Acc, inst.PC
	w.issuing = true
	w.sm.issue.Acquire(cost, w)
}

// issued sends the retired instruction's accesses through translation
// and runs ahead, or blocks on the outstanding-instruction limit.
func (w *warpCtx) issued() {
	g := w.run.g
	acc := w.acc
	w.acc = nil
	if len(acc) == 0 {
		g.eng.Post(0, w)
		return
	}
	w.pendingMem++
	mi := g.insts.Get()
	mi.w, mi.pc, mi.outstanding = w, w.pc, len(acc)
	for _, a := range acc {
		x := g.accesses.Get()
		x.inst, x.write = mi, a.Write
		g.mmu.Request(w.sm.id, a.Addr, x)
	}
	max := g.cfg.MaxPerWarpMem
	if max < 1 {
		max = 1
	}
	if w.pendingMem < max {
		// Run ahead to the next instruction.
		g.eng.Post(1, w)
	} else {
		w.blocked = true
	}
}

// memInst is one memory instruction in flight: it retires when its
// last coalesced access completes.
type memInst struct {
	w           *warpCtx
	pc          uint64
	outstanding int
}

// access is one coalesced sector access of a memory instruction. It
// is the translation target, then issues its embedded request to the
// SM's L1 and is that request's completion target.
type access struct {
	inst  *memInst
	write bool
	req   mem.Request
}

// Translated issues the sector to the L1 once its address is known.
func (a *access) Translated(pa uint64) {
	mi := a.inst
	w := mi.w
	a.req = mem.Request{
		Addr: pa, Size: workload.SectorBytes, Write: a.write,
		PC: mi.pc, Warp: w.id, SM: w.sm.id,
		Issuer: a,
	}
	w.run.g.l1s[w.sm.id].Access(&a.req)
}

// Completed retires the access and, with the last one, its
// instruction.
func (a *access) Completed(*mem.Request) {
	mi := a.inst
	w := mi.w
	g := w.run.g
	a.inst = nil
	g.accesses.Put(a)
	mi.outstanding--
	if mi.outstanding > 0 {
		return
	}
	mi.w = nil
	g.insts.Put(mi)
	w.memDone()
}

// memDone retires one memory instruction and resumes the warp if it
// was stalled on the outstanding limit (or finishes it when draining).
func (w *warpCtx) memDone() {
	g := w.run.g
	w.pendingMem--
	if w.draining {
		if w.pendingMem == 0 {
			w.run.warpDone()
		}
		return
	}
	if w.blocked {
		w.blocked = false
		g.eng.Post(1, w)
	}
}
