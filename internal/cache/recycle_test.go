package cache

import (
	"testing"

	"zng/internal/config"
	"zng/internal/mem"
	"zng/internal/rng"
	"zng/internal/sim"
)

// stubNext completes every request after a fixed latency, posting the
// request as its own event, so it allocates nothing itself.
type stubNext struct {
	eng *sim.Engine
	lat sim.Tick
}

func (s *stubNext) Access(r *mem.Request) { s.eng.Post(s.lat, r) }

// tally counts completions; a pointer to it is an allocation-free
// Completer.
type tally struct{ n int }

func (t *tally) Completed(*mem.Request) { t.n++ }

// Every steady-state access path of a cache must allocate nothing: the
// lookup, MSHR, write-allocate and writeback records all come from the
// cache's free lists.
func TestAccessPathsAllocFree(t *testing.T) {
	oneLine := config.Cache{Sets: 1, Ways: 1, LineBytes: 128, Banks: 1,
		ReadLat: 1, WriteLat: 1, MSHRs: 4, WriteBack: true}
	oneMSHR := oneLine
	oneMSHR.MSHRs = 1

	cases := []struct {
		name string
		cfg  config.Cache
		// issue sends run i's requests; reqs are reset before each run.
		issue func(c *Cache, reqs []mem.Request, i int)
		// check reports whether the intended path was taken.
		check func(c *Cache) bool
	}{
		{
			name: "hit",
			cfg:  smallCfg(),
			issue: func(c *Cache, reqs []mem.Request, _ int) {
				reqs[0].Addr = 0x1000
				c.Access(&reqs[0])
			},
			check: func(c *Cache) bool { return c.Hits.Value() > 0 },
		},
		{
			// Two sectors of one line: a miss, an MSHR merge, one fill
			// waking both waiters. Alternating lines keeps every run a
			// miss in the one-line cache.
			name: "miss-merge-fill",
			cfg:  oneLine,
			issue: func(c *Cache, reqs []mem.Request, i int) {
				line := uint64(i%2) * 0x1000
				reqs[0].Addr, reqs[1].Addr = line, line+64
				c.Access(&reqs[0])
				c.Access(&reqs[1])
			},
			check: func(c *Cache) bool { return c.MergedMisses.Value() > 0 },
		},
		{
			// Two lines behind one MSHR: the second miss waits in the
			// overflow queue and is admitted by the first fill.
			name: "overflow",
			cfg:  oneMSHR,
			issue: func(c *Cache, reqs []mem.Request, _ int) {
				reqs[0].Addr, reqs[1].Addr = 0x1000, 0x2000
				c.Access(&reqs[0])
				c.Access(&reqs[1])
			},
			check: func(c *Cache) bool { return cap(c.overflow) > 0 && c.Misses.Value() > 2 },
		},
		{
			// Store misses in a write-back cache: a write-allocate fill
			// each, and the dirty victim's writeback.
			name: "write-allocate-writeback",
			cfg:  oneLine,
			issue: func(c *Cache, reqs []mem.Request, i int) {
				reqs[0].Addr, reqs[0].Write = uint64(i%2)*0x1000, true
				c.Access(&reqs[0])
			},
			check: func(c *Cache) bool { return c.Writebacks.Value() > 0 },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			c := New(eng, tc.cfg, &stubNext{eng: eng, lat: 20}, "test")
			done := &tally{}
			reqs := make([]mem.Request, 2)
			i := 0
			run := func() {
				for j := range reqs {
					reqs[j] = mem.Request{Size: 128, Issuer: done}
				}
				tc.issue(c, reqs, i)
				i++
				eng.Run()
			}
			for w := 0; w < 4; w++ { // warm the free lists and the queues
				run()
			}
			if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
				t.Errorf("%s allocated %.1f allocs/run, want 0", tc.name, allocs)
			}
			if !tc.check(c) {
				t.Errorf("%s: path not exercised", tc.name)
			}
			if done.n == 0 {
				t.Error("no request completed")
			}
		})
	}
}

// probe is one request issued by the exactly-once tests; it records
// how often it completed and what it looked like when issued.
type probe struct {
	t    *testing.T
	req  mem.Request
	want mem.Request
	n    int
}

func (p *probe) Completed(r *mem.Request) {
	p.n++
	if p.n > 1 {
		p.t.Fatalf("request %#x completed %d times", p.want.Addr, p.n)
	}
	if r != &p.req {
		p.t.Fatalf("request %#x completed through another record", p.want.Addr)
	}
	if got := *r; got.Addr != p.want.Addr || got.Write != p.want.Write || got.Size != p.want.Size {
		p.t.Fatalf("request changed while in flight: issued %+v, completed %+v", p.want, got)
	}
}

// checkingNext is a backend that fails the test if a request record
// is handed to it again while still in flight (a pooled record
// recycled too early) or is altered before it completes. Its latency
// varies by line so completions reorder.
type checkingNext struct {
	t        *testing.T
	eng      *sim.Engine
	inFlight map[*mem.Request]mem.Request
}

func newCheckingNext(t *testing.T, eng *sim.Engine) *checkingNext {
	return &checkingNext{t: t, eng: eng, inFlight: map[*mem.Request]mem.Request{}}
}

func (b *checkingNext) Access(r *mem.Request) {
	if _, dup := b.inFlight[r]; dup {
		b.t.Fatalf("request record %p (addr %#x) reissued while in flight", r, r.Addr)
	}
	b.inFlight[r] = *r
	lat := 20 + sim.Tick(r.Addr/128%7)*15
	b.eng.Schedule(lat, func() {
		if got, want := *r, b.inFlight[r]; got.Addr != want.Addr || got.Write != want.Write {
			b.t.Fatalf("request record %p altered in flight: %+v -> %+v", r, want, got)
		}
		delete(b.inFlight, r)
		r.Complete()
	})
}

// driveExactlyOnce issues a random stream of loads and stores into
// top, pinning and unpinning lines of pin along the way, and checks
// that every request completes exactly once.
func driveExactlyOnce(t *testing.T, eng *sim.Engine, top mem.Memory, pin *Cache, be *checkingNext, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	const n = 3000
	probes := make([]probe, n)
	for i := range probes {
		p := &probes[i]
		// A small footprint (16 lines over 4 KB) forces merges,
		// overflow and evictions.
		addr := uint64(r.Intn(16))*256 + uint64(r.Intn(2))*64
		write := r.Intn(4) == 0
		p.t = t
		p.want = mem.Request{Addr: addr, Size: 128, Write: write}
		p.req = p.want
		p.req.Issuer = p
		at := sim.Tick(r.Intn(n / 2))
		pinOp := r.Intn(40)
		eng.Schedule(at, func() {
			switch {
			case pin != nil && pinOp == 0:
				pin.PinDirty(addr)
			case pin != nil && pinOp == 1:
				pin.Unpin(addr)
			}
			top.Access(&p.req)
		})
	}
	eng.Run()
	for i := range probes {
		if probes[i].n != 1 {
			t.Fatalf("request %d (%+v) completed %d times, want 1", i, probes[i].want, probes[i].n)
		}
	}
	if len(be.inFlight) != 0 {
		t.Fatalf("%d backend requests never completed", len(be.inFlight))
	}
}

// Under heavy record recycling — MSHR merges, overflow, write-allocate
// fills, writebacks and pinned lines — every request completes exactly
// once and no pooled record is reused while in flight.
func TestExactlyOnceCompletionUnderRecycling(t *testing.T) {
	small := config.Cache{Sets: 2, Ways: 2, LineBytes: 128, Banks: 2,
		ReadLat: 1, WriteLat: 2, MSHRs: 2, WriteBack: true}

	t.Run("write-back", func(t *testing.T) {
		eng := sim.NewEngine()
		be := newCheckingNext(t, eng)
		c := New(eng, small, be, "L2")
		driveExactlyOnce(t, eng, c, c, be, 1)
		if c.MergedMisses.Value() == 0 || c.Writebacks.Value() == 0 || c.WriteMisses.Value() == 0 || cap(c.overflow) == 0 {
			t.Errorf("paths not exercised: merged=%d writebacks=%d writeMisses=%d overflowed=%v",
				c.MergedMisses.Value(), c.Writebacks.Value(), c.WriteMisses.Value(), cap(c.overflow) > 0)
		}
	})

	t.Run("L1-L2", func(t *testing.T) {
		eng := sim.NewEngine()
		be := newCheckingNext(t, eng)
		l2 := New(eng, small, be, "L2")
		l1cfg := small
		l1cfg.WriteBack = false
		l1 := New(eng, l1cfg, l2, "L1")
		driveExactlyOnce(t, eng, l1, l2, be, 2)
		if l1.MergedMisses.Value() == 0 || l2.Writebacks.Value() == 0 {
			t.Errorf("paths not exercised: l1 merged=%d l2 writebacks=%d",
				l1.MergedMisses.Value(), l2.Writebacks.Value())
		}
	})

	t.Run("L1-readonly-L2", func(t *testing.T) {
		eng := sim.NewEngine()
		be := newCheckingNext(t, eng)
		ro := small
		ro.WriteBack, ro.ReadOnly = false, true
		l2 := New(eng, ro, be, "L2")
		l1cfg := small
		l1cfg.WriteBack = false
		l1 := New(eng, l1cfg, l2, "L1")
		driveExactlyOnce(t, eng, l1, l2, be, 3)
		if l2.WriteHits.Value() == 0 {
			t.Error("no store absorbed by a pinned line")
		}
	})
}
