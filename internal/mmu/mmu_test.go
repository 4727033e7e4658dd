package mmu

import (
	"testing"

	"zng/internal/config"
	"zng/internal/sim"
)

func newUnit(eng *sim.Engine, walkLat sim.Tick) *Unit {
	cfg := config.Default().MMU
	u := New(eng, cfg, 2, walkLat)
	u.Translate = func(va uint64) uint64 { return va + 0x1000_0000 }
	return u
}

func TestTranslationMissThenHit(t *testing.T) {
	eng := sim.NewEngine()
	u := newUnit(eng, 400)
	var pa uint64
	u.Request(0, 0x4000, translatedFunc(func(p uint64) { pa = p }))
	eng.Run()
	missTime := eng.Now()
	if pa != 0x4000+0x1000_0000 {
		t.Fatalf("pa = %x", pa)
	}
	if missTime < 400 {
		t.Errorf("walk completed at %d, want >= 400", missTime)
	}
	if u.Walks.Value() != 1 {
		t.Errorf("walks = %d", u.Walks.Value())
	}

	start := eng.Now()
	u.Request(0, 0x4008, translatedFunc(func(p uint64) { pa = p })) // same page: L1 TLB hit
	eng.Run()
	if eng.Now()-start > 5 {
		t.Errorf("TLB hit took %d ticks", eng.Now()-start)
	}
	if u.L1Hits.Value() != 1 {
		t.Errorf("l1 hits = %d", u.L1Hits.Value())
	}
}

func TestWalkCacheSharedAcrossSMs(t *testing.T) {
	eng := sim.NewEngine()
	u := newUnit(eng, 400)
	u.Request(0, 0x8000, translatedFunc(func(uint64) {}))
	eng.Run()
	start := eng.Now()
	// SM 1 misses its own L1 TLB but hits the shared walk cache.
	u.Request(1, 0x8000, translatedFunc(func(uint64) {}))
	eng.Run()
	if u.WalkCacheHits.Value() != 1 {
		t.Errorf("walk cache hits = %d, want 1", u.WalkCacheHits.Value())
	}
	if d := eng.Now() - start; d < 5 || d >= 400 {
		t.Errorf("walk-cache path took %d, want between L1 hit and full walk", d)
	}
}

func TestWalkerConcurrencyLimit(t *testing.T) {
	eng := sim.NewEngine()
	cfg := config.Default().MMU
	cfg.WalkerThreads = 2
	u := New(eng, cfg, 1, 100)
	u.Translate = func(va uint64) uint64 { return va }
	done := 0
	for i := 0; i < 4; i++ {
		u.Request(0, uint64(i)<<12<<8, translatedFunc(func(uint64) { done++ })) // distinct pages
	}
	eng.Run()
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
	// 4 walks on 2 threads of 100 ticks: finish at 200, not 100.
	if eng.Now() < 200 {
		t.Errorf("4 walks finished at %d; concurrency limit not enforced", eng.Now())
	}
}

func TestDBMTFastWalk(t *testing.T) {
	// ZnG mode: walk latency is the 4-cycle DBMT lookup.
	eng := sim.NewEngine()
	u := newUnit(eng, config.Default().MMU.DBMTLatency)
	u.Request(0, 0xA000, translatedFunc(func(uint64) {}))
	eng.Run()
	if eng.Now() > 20 {
		t.Errorf("DBMT walk took %d ticks, want a handful", eng.Now())
	}
}

func TestL1TLBEviction(t *testing.T) {
	eng := sim.NewEngine()
	cfg := config.Default().MMU
	cfg.L1TLBEntries = 2
	cfg.WalkCacheEnt = 2
	u := New(eng, cfg, 1, 50)
	u.Translate = func(va uint64) uint64 { return va }
	for i := 0; i < 3; i++ { // 3 pages through a 2-entry TLB
		u.Request(0, uint64(i)*PageBytes, translatedFunc(func(uint64) {}))
		eng.Run()
	}
	u.Request(0, 0, translatedFunc(func(uint64) {})) // page 0 evicted from both TLB and walk cache
	eng.Run()
	if u.Walks.Value() != 4 {
		t.Errorf("walks = %d, want 4 (page 0 re-walked)", u.Walks.Value())
	}
}

func TestFaultPath(t *testing.T) {
	eng := sim.NewEngine()
	u := newUnit(eng, 10)
	resident := map[uint64]bool{}
	var pending []func()
	u.Fault = func(va uint64, resume func()) bool {
		if resident[va/PageBytes] {
			return false
		}
		pending = append(pending, func() {
			resident[va/PageBytes] = true
			resume()
		})
		return true
	}
	done := false
	u.Request(0, 0xC000, translatedFunc(func(uint64) { done = true }))
	eng.Run()
	if done {
		t.Fatal("request completed without fault service")
	}
	if u.Faults.Value() != 1 {
		t.Fatalf("faults = %d", u.Faults.Value())
	}
	// Service the fault.
	for _, f := range pending {
		f()
	}
	eng.Run()
	if !done {
		t.Fatal("request did not resume after fault service")
	}
}

func TestInvalidatePage(t *testing.T) {
	eng := sim.NewEngine()
	u := newUnit(eng, 100)
	u.Request(0, 0xE000, translatedFunc(func(uint64) {}))
	eng.Run()
	u.InvalidatePage(0xE000 / PageBytes)
	u.Request(0, 0xE000, translatedFunc(func(uint64) {}))
	eng.Run()
	if u.Walks.Value() != 2 {
		t.Errorf("walks = %d, want 2 after invalidate", u.Walks.Value())
	}
}

func TestL1HitRate(t *testing.T) {
	eng := sim.NewEngine()
	u := newUnit(eng, 10)
	u.Request(0, 0, translatedFunc(func(uint64) {}))
	eng.Run()
	for i := 0; i < 3; i++ {
		u.Request(0, uint64(i*8), translatedFunc(func(uint64) {}))
		eng.Run()
	}
	if hr := u.L1HitRate(); hr != 0.75 {
		t.Errorf("hit rate = %v, want 0.75", hr)
	}
}

// translatedFunc adapts a function to Translated.
type translatedFunc func(pa uint64)

func (f translatedFunc) Translated(pa uint64) { f(pa) }

// sink is an allocation-free Translated target.
type sink struct{ n int }

func (s *sink) Translated(uint64) { s.n++ }

// Every translation path must allocate nothing in the steady state:
// the translation record comes from the unit's free list and its
// fault-resume callback is bound once per record.
func TestTranslationPathsAllocFree(t *testing.T) {
	cases := []struct {
		name  string
		cfg   func(*config.MMU)
		issue func(u *Unit, to *sink, i int)
		check func(u *Unit) bool
	}{
		{
			name:  "l1-hit",
			issue: func(u *Unit, to *sink, _ int) { u.Request(0, 0x4000, to) },
			check: func(u *Unit) bool { return u.L1Hits.Value() > 0 },
		},
		{
			// A one-entry L1 TLB alternating two pages misses every
			// time while both stay in the walk cache.
			name:  "walk-cache-hit",
			cfg:   func(c *config.MMU) { c.L1TLBEntries = 1 },
			issue: func(u *Unit, to *sink, i int) { u.Request(0, uint64(i%2)*PageBytes, to) },
			check: func(u *Unit) bool { return u.WalkCacheHits.Value() > 0 },
		},
		{
			name: "full-walk",
			issue: func(u *Unit, to *sink, _ int) {
				u.InvalidatePage(0x8000 / PageBytes)
				u.Request(0, 0x8000, to)
			},
			check: func(u *Unit) bool { return u.Walks.Value() > 4 },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			cfg := config.Default().MMU
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			u := New(eng, cfg, 2, 400)
			u.Translate = func(va uint64) uint64 { return va }
			to := &sink{}
			i := 0
			run := func() {
				tc.issue(u, to, i)
				i++
				eng.Run()
			}
			for w := 0; w < 4; w++ {
				run()
			}
			if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
				t.Errorf("%s allocated %.1f allocs/run, want 0", tc.name, allocs)
			}
			if !tc.check(u) || to.n != i {
				t.Errorf("%s: path not exercised or translations lost (%d delivered, %d issued)", tc.name, to.n, i)
			}
		})
	}
}
