package platform

import (
	"testing"

	"zng/internal/config"
	"zng/internal/mem"
	"zng/internal/rng"
	"zng/internal/sim"
	"zng/internal/workload"
)

// A tiny ZnG simulation allocates only its set-up (flash blocks, FTL
// tables, cache arrays, about 16.5k objects at this size); the memory
// path itself allocates nothing per access. One allocation per access
// would add about 200k objects at this size.
//
// This is a ceiling, not an exact count: per-run totals vary by a few
// objects with map hash seeds (how often a map grows), so an exact
// gate would be flaky.
func TestRunMixAllocCeiling(t *testing.T) {
	const ceiling = 20000
	mix, err := workload.MixByName("bfs1-gaus")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := RunMix(ZnG, mix, 0.05, config.Default()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Errorf("tiny ZnG RunMix allocated %.0f objects, ceiling %d", allocs, ceiling)
	}
}

// senseProbe is one request issued into the ZnG L2; it fails the test
// on a second completion.
type senseProbe struct {
	t   *testing.T
	req mem.Request
	n   int
}

func (p *senseProbe) Completed(r *mem.Request) {
	p.n++
	if p.n > 1 || r != &p.req {
		p.t.Fatalf("request %#x completed %d times (record %p, want %p)", p.req.Addr, p.n, r, &p.req)
	}
}

// Fills of several lines of one flash page merge onto a single array
// sense (sensePending) while the controller recycles its request and
// sense records; every request must still complete exactly once.
func TestZnGSenseMergeExactlyOnce(t *testing.T) {
	eng := sim.NewEngine()
	sys := buildZnG(eng, ZnG, testCfg())
	r := rng.New(7)
	const n = 4000
	probes := make([]senseProbe, n)
	for i := range probes {
		p := &probes[i]
		// Every 500 ticks the accesses move to four fresh flash pages
		// (32 lines each), so senses keep starting, merging and
		// recycling their records; one access in eight stores.
		at := sim.Tick(r.Intn(100000))
		page := uint64(int(at)/500*4+r.Intn(4)) * 16 * mem.PageBytes4K
		addr := page + uint64(r.Intn(32))*128
		p.t = t
		p.req = mem.Request{Addr: addr, Size: 128, Write: r.Intn(8) == 0, Issuer: p}
		eng.Schedule(at, func() { sys.l2.Access(&p.req) })
	}
	eng.Run()
	for i := range probes {
		if probes[i].n != 1 {
			t.Fatalf("request %d (%#x) completed %d times, want 1", i, probes[i].req.Addr, probes[i].n)
		}
	}
	res := sys.collect(ZnG, "probe")
	if res.Extra["sense_merges"] == 0 || res.Extra["demand_fills"] == 0 {
		t.Errorf("sense merge path not exercised: merges=%v fills=%v",
			res.Extra["sense_merges"], res.Extra["demand_fills"])
	}
}
