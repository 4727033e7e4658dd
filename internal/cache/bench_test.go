package cache

import (
	"testing"

	"zng/internal/config"
	"zng/internal/mem"
	"zng/internal/sim"
)

// BenchmarkCacheHit times one read hit: the bank lookup event and the
// hit-latency completion event.
func BenchmarkCacheHit(b *testing.B) {
	eng := sim.NewEngine()
	c := New(eng, smallCfg(), &stubNext{eng: eng, lat: 20}, "bench")
	done := &tally{}
	req := mem.Request{Addr: 0x1000, Size: 128, Issuer: done}
	c.Access(&req)
	eng.Run()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req = mem.Request{Addr: 0x1000, Size: 128, Issuer: done}
		c.Access(&req)
		eng.Run()
	}
}

// BenchmarkCacheMissFill times one read miss through an MSHR, the line
// fill from the next level, and the waiter's completion.
func BenchmarkCacheMissFill(b *testing.B) {
	eng := sim.NewEngine()
	cfg := config.Cache{Sets: 1, Ways: 1, LineBytes: 128, Banks: 1,
		ReadLat: 1, WriteLat: 1, MSHRs: 4}
	c := New(eng, cfg, &stubNext{eng: eng, lat: 20}, "bench")
	done := &tally{}
	var req mem.Request
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req = mem.Request{Addr: uint64(i%2) * 0x1000, Size: 128, Issuer: done}
		c.Access(&req)
		eng.Run()
	}
}
