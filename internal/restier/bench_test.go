package restier

import (
	"fmt"
	"testing"

	"zng/internal/platform"
	"zng/internal/store"
)

// benchResult is a representative result document: the flat scalar
// fields plus the slice/map extras a real platform run carries, so
// the disk tier pays a realistic decode.
func benchResult() platform.Result {
	r := platform.Result{
		Kind: platform.ZnG, Workload: "betw-back", IPC: 1.8342, Cycles: 1 << 22,
		Insts: 9_500_000, FlashReadGBps: 61.2, FlashWriteGBps: 7.9,
		L2HitRate: 0.82, TLBHitRate: 0.97,
		PlaneWrites: make([]uint64, 128),
		Extra:       map[string]float64{"prefetch_issued": 1821, "prefetch_wasted": 204},
	}
	for i := range r.PlaneWrites {
		r.PlaneWrites[i] = uint64(i * 37)
	}
	return r
}

// BenchmarkTieredLookup compares the serving cost of a hit at each
// tier: the memory LRU versus the persistent store (file read + JSON
// decode per hit). The gap is the reason the tier exists — the memory
// path must be well over 5x cheaper than the disk path it shields.
func BenchmarkTieredLookup(b *testing.B) {
	const cells = 64
	r := benchResult()

	b.Run("memory", func(b *testing.B) {
		tiered := NewTiered(cells, nil)
		for i := 0; i < cells; i++ {
			tiered.Put(fmt.Sprintf("cell-%d", i), r)
		}
		keys := make([]string, cells)
		for i := range keys {
			keys[i] = fmt.Sprintf("cell-%d", i)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, _, tier := tiered.Get(keys[i%cells])
			if tier != TierMemory || res.IPC != r.IPC {
				b.Fatal("memory tier missed")
			}
		}
	})

	b.Run("disk", func(b *testing.B) {
		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		// A 1-entry memory tier over a 64-key cycle: every lookup misses
		// memory and pays the store read (plus the promotion).
		tiered := NewTiered(1, st)
		keys := make([]string, cells)
		for i := range keys {
			keys[i] = fmt.Sprintf("cell-%d", i)
			tiered.Put(keys[i], r)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, _, tier := tiered.Get(keys[i%cells])
			if tier != TierDisk || res.IPC != r.IPC {
				b.Fatal("disk tier missed")
			}
		}
	})
}

// BenchmarkCacheChurn measures Put+Get over a key space larger than
// capacity — the steady-state cost of the LRU under eviction
// pressure.
func BenchmarkCacheChurn(b *testing.B) {
	const capacity, keySpace = 256, 1024
	c := NewCache(capacity)
	r := benchResult()
	keys := make([]string, keySpace)
	for i := range keys {
		keys[i] = fmt.Sprintf("cell-%d", i)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := keys[i%keySpace]
		if _, _, ok := c.Get(k); !ok {
			c.Put(k, r)
		}
	}
}
