package restier

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"zng/internal/platform"
	"zng/internal/store"
)

func res(ipc float64) platform.Result {
	return platform.Result{Kind: platform.ZnG, Workload: "test", IPC: ipc}
}

// TestLRUTable drives the cache through scripted op sequences and
// checks the survivors, the eviction order and the counters — the
// core LRU contract in one table.
func TestLRUTable(t *testing.T) {
	type op struct {
		verb string // "put" or "get"
		key  string
		hit  bool // for get: expected outcome
	}
	for name, tc := range map[string]struct {
		cap      int
		ops      []op
		wantLRU  []string // resident keys, least-recent first
		wantHits uint64
		wantMiss uint64
		wantEvic uint64
	}{
		"fills to capacity": {
			cap:     3,
			ops:     []op{{verb: "put", key: "a"}, {verb: "put", key: "b"}, {verb: "put", key: "c"}},
			wantLRU: []string{"a", "b", "c"},
		},
		"capacity enforced oldest-first": {
			cap: 2,
			ops: []op{
				{verb: "put", key: "a"}, {verb: "put", key: "b"}, {verb: "put", key: "c"},
			},
			wantLRU:  []string{"b", "c"},
			wantEvic: 1,
		},
		"get promotes against eviction": {
			cap: 2,
			ops: []op{
				{verb: "put", key: "a"}, {verb: "put", key: "b"},
				{verb: "get", key: "a", hit: true}, // a is now most recent
				{verb: "put", key: "c"},            // evicts b, not a
			},
			wantLRU:  []string{"a", "c"},
			wantHits: 1,
			wantEvic: 1,
		},
		"re-put refreshes recency without eviction": {
			cap: 2,
			ops: []op{
				{verb: "put", key: "a"}, {verb: "put", key: "b"},
				{verb: "put", key: "a"}, // refresh, no new entry
				{verb: "put", key: "c"}, // evicts b
			},
			wantLRU:  []string{"a", "c"},
			wantEvic: 1,
		},
		"misses counted, nothing resident lost": {
			cap: 2,
			ops: []op{
				{verb: "get", key: "a", hit: false},
				{verb: "put", key: "a"},
				{verb: "get", key: "a", hit: true},
				{verb: "get", key: "zzz", hit: false},
			},
			wantLRU:  []string{"a"},
			wantHits: 1,
			wantMiss: 2,
		},
		"eviction order follows access order": {
			cap: 3,
			ops: []op{
				{verb: "put", key: "a"}, {verb: "put", key: "b"}, {verb: "put", key: "c"},
				{verb: "get", key: "b", hit: true},
				{verb: "get", key: "a", hit: true},
				// recency now c < b < a; two inserts evict c then b.
				{verb: "put", key: "d"}, {verb: "put", key: "e"},
			},
			wantLRU:  []string{"a", "d", "e"},
			wantHits: 2,
			wantEvic: 2,
		},
	} {
		t.Run(name, func(t *testing.T) {
			c := NewCache(tc.cap)
			for i, o := range tc.ops {
				switch o.verb {
				case "put":
					c.Put(o.key, res(float64(i+1)))
				case "get":
					if _, _, ok := c.Get(o.key); ok != o.hit {
						t.Fatalf("op %d: Get(%q) hit = %v, want %v", i, o.key, ok, o.hit)
					}
				}
			}
			if got := fmt.Sprint(c.keysLRU()); got != fmt.Sprint(tc.wantLRU) {
				t.Errorf("resident (LRU first) = %v, want %v", c.keysLRU(), tc.wantLRU)
			}
			st := c.Stats()
			if st.Hits != tc.wantHits || st.Misses != tc.wantMiss || st.Evictions != tc.wantEvic {
				t.Errorf("stats = %+v, want hits %d, misses %d, evictions %d",
					st, tc.wantHits, tc.wantMiss, tc.wantEvic)
			}
			if st.Entries != len(tc.wantLRU) || c.Len() != len(tc.wantLRU) {
				t.Errorf("entries = %d (Len %d), want %d", st.Entries, c.Len(), len(tc.wantLRU))
			}
			if st.Entries > st.Capacity {
				t.Errorf("entries %d exceed capacity %d", st.Entries, st.Capacity)
			}
		})
	}
}

// TestLRUValuesSurviveIntact: the cache returns the exact Result that
// was put under the key, even after promotions and unrelated
// evictions.
func TestLRUValuesSurviveIntact(t *testing.T) {
	c := NewCache(2)
	a := platform.Result{Kind: platform.ZnG, Workload: "w-a", IPC: 1.25, Insts: 77}
	c.Put("a", a)
	c.Put("b", res(2))
	c.Put("c", res(3)) // nothing forces a's value to change
	c.Put("a", a)      // may re-insert after eviction; value must match
	got, _, ok := c.Get("a")
	if !ok {
		t.Fatal("a not resident")
	}
	if got.IPC != a.IPC || got.Insts != a.Insts || got.Workload != a.Workload {
		t.Errorf("cached value mutated: %+v != %+v", got, a)
	}
}

// TestNewCacheRejectsNonPositiveCapacity pins the constructor
// contract (the serving layer gates capacity 0 to "no tier" itself).
func TestNewCacheRejectsNonPositiveCapacity(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCache(%d) did not panic", n)
				}
			}()
			NewCache(n)
		}()
	}
}

// TestCacheChurnRace hammers Get/Put/Stats over a capacity far
// smaller than the key space from many goroutines — modeled on
// simsvc's TestDoSurvivesEvictionChurn — so -race sees every
// interleaving of promotion and eviction, and the invariants
// (bounded residency, hits+misses == gets, values intact) hold after
// the dust settles.
func TestCacheChurnRace(t *testing.T) {
	const (
		capacity   = 8
		keySpace   = 64
		goroutines = 8
		iters      = 2000
	)
	c := NewCache(capacity)
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			gets := uint64(0)
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("cell-%d", (g*7+i)%keySpace)
				want := float64((g*7+i)%keySpace + 1)
				if i%3 == 0 {
					c.Put(key, res(want))
					continue
				}
				gets++
				if r, _, ok := c.Get(key); ok && r.IPC != want {
					errs <- fmt.Sprintf("Get(%q) = IPC %v, want %v (value crossed keys)", key, r.IPC, want)
					return
				}
				if i%100 == 0 {
					if st := c.Stats(); st.Entries > capacity {
						errs <- fmt.Sprintf("entries %d exceed capacity %d mid-churn", st.Entries, capacity)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	st := c.Stats()
	if st.Entries > capacity || c.Len() > capacity {
		t.Errorf("final entries = %d, want ≤ %d", st.Entries, capacity)
	}
	if st.Evictions == 0 {
		t.Error("churn produced no evictions; the test exercised nothing")
	}
	if st.Hits+st.Misses == 0 {
		t.Error("churn recorded no lookups")
	}
	// The recency list and the map agree about residency.
	if got := len(c.keysLRU()); got != st.Entries {
		t.Errorf("recency list has %d entries, map has %d", got, st.Entries)
	}
}

// TestTieredResolution walks the memory → disk → miss ladder: a cold
// key misses both tiers, a stored key is a disk hit that promotes
// into memory, and the promoted key is a memory hit thereafter.
func TestTieredResolution(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(4, st)

	if _, _, tier := tiered.Get("cold"); tier != TierNone {
		t.Fatalf("cold key resolved from %v", tier)
	}
	if err := st.Put("warm", res(3)); err != nil {
		t.Fatal(err)
	}
	r, _, tier := tiered.Get("warm")
	if tier != TierDisk || r.IPC != 3 {
		t.Fatalf("stored key = %v from %v, want IPC 3 from disk", r.IPC, tier)
	}
	r, _, tier = tiered.Get("warm")
	if tier != TierMemory || r.IPC != 3 {
		t.Fatalf("second lookup = %v from %v, want IPC 3 from memory (read-through promotion)", r.IPC, tier)
	}
	cs := tiered.CacheStats()
	if cs.Hits != 1 || cs.Entries != 1 {
		t.Errorf("cache stats = %+v, want 1 hit, 1 entry", cs)
	}

	// Put writes through both tiers: resident in memory and on disk.
	tiered.Put("fresh", res(9))
	if _, ok := st.Get("fresh"); !ok {
		t.Error("Put did not reach the disk tier")
	}
	if r, _, tier := tiered.Get("fresh"); tier != TierMemory || r.IPC != 9 {
		t.Errorf("fresh = %v from %v, want memory", r.IPC, tier)
	}
}

// TestTieredDegradedLayers: a memory-only tier (no store) serves
// from memory and forgets what its LRU evicts; a 1-entry tier over a
// store serves an evicted key from disk, promoting it again.
func TestTieredDegradedLayers(t *testing.T) {
	memOnly := NewTiered(1, nil)
	memOnly.Put("k", res(1))
	if r, _, tier := memOnly.Get("k"); tier != TierMemory || r.IPC != 1 {
		t.Errorf("memory-only Get = %v from %v", r.IPC, tier)
	}
	memOnly.Put("j", res(2)) // evicts k
	if _, _, tier := memOnly.Get("k"); tier != TierNone {
		t.Errorf("memory-only tier served an evicted key from %v", tier)
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiny := NewTiered(1, st)
	tiny.Put("k", res(3))
	tiny.Put("j", res(4)) // evicts k from memory; the store keeps it
	if _, _, ok := tiny.GetMem("k"); ok {
		t.Fatal("evicted key still resident in memory")
	}
	if r, _, tier := tiny.Get("k"); tier != TierDisk || r.IPC != 3 {
		t.Fatalf("evicted key = %v from %v, want IPC 3 from disk", r.IPC, tier)
	}
	if r, _, tier := tiny.Get("k"); tier != TierMemory || r.IPC != 3 {
		t.Errorf("re-lookup = %v from %v, want memory (read-through promotion)", r.IPC, tier)
	}
	if cs := tiny.CacheStats(); cs.Entries != 1 || cs.Capacity != 1 {
		t.Errorf("cache stats = %+v, want 1 entry at capacity 1", cs)
	}
}

// TestTieredPersistFailure: when the disk write fails, Put reports
// unpersisted but the memory tier still serves the value — degraded
// durability, intact serving.
func TestTieredPersistFailure(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(2, st)
	// Make the directory unwritable so the store's temp-file create
	// fails.
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if os.Geteuid() == 0 {
		t.Skip("running as root: directory permissions do not bind")
	}
	tiered.Put("k", res(4))
	if _, ok := st.Get("k"); ok {
		t.Fatal("Put into an unwritable store persisted")
	}
	if r, _, tier := tiered.Get("k"); tier != TierMemory || r.IPC != 4 {
		t.Errorf("after failed persist: %v from %v, want memory serve", r.IPC, tier)
	}
}

// TestNegativeCaching: a cached deterministic failure is a first-class
// LRU entry — replayed verbatim as a typed *Negative on later Gets,
// counted by the Negatives gauge, convertible back to a result entry
// by a plain Put, and subject to the same eviction as everything else.
func TestNegativeCaching(t *testing.T) {
	c := NewCache(2)
	c.PutNegative("bad", "zng: 99 apps exceed 64 SMs")

	r, err, ok := c.Get("bad")
	if !ok {
		t.Fatal("negative entry not resident")
	}
	var neg *Negative
	if !errors.As(err, &neg) || neg.Msg != "zng: 99 apps exceed 64 SMs" {
		t.Fatalf("Get(bad) err = %v, want *Negative with original text", err)
	}
	if r.IPC != 0 || r.Workload != "" {
		t.Errorf("negative entry carries a non-zero result: %+v", r)
	}
	if st := c.Stats(); st.Negatives != 1 || st.Entries != 1 || st.Hits != 1 {
		t.Errorf("stats after negative hit = %+v, want 1 negative, 1 entry, 1 hit", st)
	}

	// A Put over the negative converts it; the gauge drops.
	c.Put("bad", res(7))
	if r, err, ok := c.Get("bad"); !ok || err != nil || r.IPC != 7 {
		t.Fatalf("after convert: res %v err %v ok %v, want IPC 7, nil, true", r.IPC, err, ok)
	}
	if st := c.Stats(); st.Negatives != 0 {
		t.Errorf("negatives gauge = %d after convert, want 0", st.Negatives)
	}

	// And back: PutNegative over a result entry raises it again.
	c.PutNegative("bad", "still bad")
	if st := c.Stats(); st.Negatives != 1 {
		t.Errorf("negatives gauge = %d after re-negation, want 1", st.Negatives)
	}

	// Eviction of a negative entry decrements the gauge.
	c.Put("x", res(1))
	c.Put("y", res(2)) // capacity 2: evicts the LRU ("bad")
	if _, _, ok := c.Get("bad"); ok {
		t.Fatal("negative entry survived eviction pressure")
	}
	if st := c.Stats(); st.Negatives != 0 {
		t.Errorf("negatives gauge = %d after eviction, want 0", st.Negatives)
	}
}

// TestTieredNegatives: negatives live only in the memory tier — a
// Tiered.PutNegative never reaches the disk store, a memory hit
// carries the error, and an evicted negative is gone (the caller just
// re-simulates).
func TestTieredNegatives(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(4, st)
	tiered.PutNegative("bad", "boom")

	r, gerr, tier := tiered.Get("bad")
	var neg *Negative
	if tier != TierMemory || !errors.As(gerr, &neg) || neg.Msg != "boom" {
		t.Fatalf("Get(bad) = (%v, %v, %v), want negative from memory", r, gerr, tier)
	}
	if _, ok := st.Get("bad"); ok {
		t.Error("negative entry leaked into the disk store")
	}
	if cs := tiered.CacheStats(); cs.Negatives != 1 {
		t.Errorf("tier negatives gauge = %d, want 1", cs.Negatives)
	}

	tiny := NewTiered(1, st)
	tiny.PutNegative("bad", "boom")
	tiny.Put("good", res(1)) // evicts the negative
	if _, gerr, tier := tiny.Get("bad"); tier != TierNone || gerr != nil {
		t.Errorf("evicted negative served: %v from %v", gerr, tier)
	}
}

// TestTierString pins the metric/source spellings.
func TestTierString(t *testing.T) {
	for tier, want := range map[Tier]string{TierNone: "none", TierMemory: "memory", TierDisk: "disk"} {
		if got := tier.String(); got != want {
			t.Errorf("Tier(%d).String() = %q, want %q", tier, got, want)
		}
	}
}
