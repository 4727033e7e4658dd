package simsvc

import (
	"sync/atomic"
	"testing"

	"zng/internal/config"
	"zng/internal/experiments"
	"zng/internal/platform"
	"zng/internal/store"
	"zng/internal/workload"
)

// BenchmarkServiceThroughput measures end-to-end request throughput
// against a warmed store at TestOptions scale: every request pays the
// full serving path — content-address lookup, submit, memory-tier
// hit, result relabel — and is satisfied without simulating. This is the
// baseline trajectory for future scaling work (sharding, batching,
// multi-node): the serving overhead a hit costs, as requests/sec.
func BenchmarkServiceThroughput(b *testing.B) {
	o := experiments.TestOptions()
	mix := o.Mixes[0]
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	svc := New(Config{Store: st})
	defer svc.Close()
	// Warm: one real simulation lands the cell in memory and on disk.
	if _, err := svc.Run(platform.GDDR5, mix, o.Scale, o.Cfg); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r, err := svc.Run(platform.GDDR5, mix, o.Scale, o.Cfg)
			if err != nil {
				b.Fatal(err)
			}
			if r.IPC <= 0 {
				b.Fatal("served result lost its IPC")
			}
		}
	})
	b.StopTimer()
	if st := svc.Stats(); st.Sims != 1 {
		b.Fatalf("benchmark simulated %d times, want the single warmup", st.Sims)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServiceTiered compares the serving hot path per tier over
// a 64-cell working set: every request re-resolves its completed cell
// — from the warmed memory tier ("memory"), or, through a 1-entry tier
// the cycle keeps evicting, from the store via a full queue + worker
// round trip ("disk"). The gap is the tier's reason to exist: memory
// must be well over 5x cheaper.
func BenchmarkServiceTiered(b *testing.B) {
	b.Run("memory", func(b *testing.B) { benchTieredServing(b, DefaultCacheEntries) })
	b.Run("disk", func(b *testing.B) { benchTieredServing(b, 1) })
}

func benchTieredServing(b *testing.B, cacheEntries int) {
	const cells = 64
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	stub := func(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
		return platform.Result{Kind: kind, Workload: mix.Name, IPC: 1.5, Cycles: 1000, Insts: 1500}, nil
	}
	svc := New(Config{Store: st, CacheEntries: cacheEntries, Simulate: stub})
	defer svc.Close()

	o := experiments.TestOptions()
	mix := o.Mixes[0]
	reqs := make([]Request, cells)
	for i := range reqs {
		reqs[i] = Request{Kind: platform.GDDR5, Mix: mix, Scale: o.Scale * (1 + float64(i)/cells), Cfg: o.Cfg}
		// Warm: every cell simulated once, written through to the store
		// and the tier.
		if _, err := svc.Do(reqs[i]); err != nil {
			b.Fatal(err)
		}
	}

	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r, err := svc.Do(reqs[next.Add(1)%cells])
			if err != nil {
				b.Fatal(err)
			}
			if r.IPC <= 0 {
				b.Fatal("served result lost its IPC")
			}
		}
	})
	b.StopTimer()
	if sims := svc.Stats().Sims; sims != cells {
		b.Fatalf("benchmark re-simulated: %d sims, want the %d warmups", sims, cells)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// TestTierHitAllocs pins the cost of the hot path: a warmed
// memory-tier hit allocates no job, so a Do answered at admission
// stays within 4 allocations.
func TestTierHitAllocs(t *testing.T) {
	stub := func(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
		return platform.Result{Kind: kind, Workload: mix.Name, IPC: 1.5}, nil
	}
	svc := New(Config{Workers: 1, Simulate: stub})
	defer svc.Close()
	req := Request{Kind: platform.GDDR5, Mix: testMix(t, "betw-back"), Scale: 0.5, Cfg: config.Default()}
	if _, err := svc.Do(req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := svc.Do(req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("warmed tier-hit Do made %v allocations, want at most 4", allocs)
	}
	if st := svc.Stats(); st.Sims != 1 {
		t.Errorf("stats = %+v, want the single warmup simulation", st)
	}
}
