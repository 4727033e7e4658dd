package sim

import (
	"testing"
	"testing/quick"

	"zng/internal/rng"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(10, func() { got = append(got, 2) })
	e.Schedule(5, func() { got = append(got, 1) })
	e.Schedule(10, func() { got = append(got, 3) }) // same tick: FIFO
	e.Schedule(20, func() { got = append(got, 4) })
	e.Run()
	want := []int{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if e.Now() != 20 {
		t.Errorf("Now() = %d, want 20", e.Now())
	}
	if e.Fired() != 4 {
		t.Errorf("Fired() = %d, want 4", e.Fired())
	}
}

func TestEngineScheduleDuringRun(t *testing.T) {
	e := NewEngine()
	var ticks []Tick
	e.Schedule(1, func() {
		ticks = append(ticks, e.Now())
		e.Schedule(9, func() { ticks = append(ticks, e.Now()) })
	})
	e.Run()
	if len(ticks) != 2 || ticks[0] != 1 || ticks[1] != 10 {
		t.Fatalf("ticks = %v, want [1 10]", ticks)
	}
}

func TestEngineZeroAndNegativeDelay(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {
		now := e.Now()
		e.Schedule(0, func() {
			if e.Now() != now {
				t.Errorf("zero-delay event fired at %d, want %d", e.Now(), now)
			}
		})
		e.Schedule(-3, func() {
			if e.Now() != now {
				t.Errorf("negative-delay event fired at %d, want %d", e.Now(), now)
			}
		})
	})
	e.Run()
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	for _, d := range []Tick{1, 5, 10, 15} {
		e.Schedule(d, func() { fired++ })
	}
	e.RunUntil(10)
	if fired != 3 {
		t.Errorf("fired = %d after RunUntil(10), want 3", fired)
	}
	if e.Now() != 10 {
		t.Errorf("Now() = %d, want 10", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", e.Pending())
	}
	e.RunFor(5)
	if fired != 4 {
		t.Errorf("fired = %d after RunFor(5), want 4", fired)
	}
}

func TestEngineScheduleAtPastClamps(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		e.PostAt(3, Func(func() {
			if e.Now() != 10 {
				t.Errorf("past event fired at %d, want clamp to 10", e.Now())
			}
		}))
	})
	e.Run()
}

// Property: events always fire in nondecreasing time order, regardless
// of schedule order.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		last := Tick(-1)
		ok := true
		for _, d := range delays {
			e.Schedule(Tick(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: same-tick events fire FIFO even under random interleaving.
// This pins the engine's ordering contract: within one tick, events
// fire in exactly the order they were scheduled.
func TestEngineSameTickFIFO(t *testing.T) {
	r := rng.New(1)
	e := NewEngine()
	const n = 2000
	type fired struct {
		tick Tick
		idx  int
	}
	var got []fired
	for i := 0; i < n; i++ {
		i := i
		e.Schedule(Tick(r.Intn(5)), func() { got = append(got, fired{e.Now(), i}) })
	}
	e.Run()
	if len(got) != n {
		t.Fatalf("fired %d events, want %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if got[i].tick < got[i-1].tick {
			t.Fatalf("time ran backwards: tick %d after %d", got[i].tick, got[i-1].tick)
		}
		if got[i].tick == got[i-1].tick && got[i].idx <= got[i-1].idx {
			t.Fatalf("same-tick FIFO violated at tick %d: index %d fired after %d",
				got[i].tick, got[i].idx, got[i-1].idx)
		}
	}
}

// The steady state — nodes taken from and returned to the engine's
// pool — must not allocate: event dispatch is the hottest loop in the
// whole simulator.
func TestEngineSteadyStateAllocFree(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	// Grow the node pool to its high-water mark.
	for i := 0; i < 64; i++ {
		e.Schedule(Tick(i%8), nop)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 64; i++ {
			e.Schedule(Tick(i%8), nop)
		}
		e.Run()
	})
	if allocs > 0 {
		t.Errorf("steady-state schedule+run allocated %.1f allocs/run, want 0", allocs)
	}
}

// counter is a typed handler, the shape of the pooled records the
// model posts.
type counter struct{ n int }

func (c *counter) Fire() { c.n++ }

// Posting typed handlers and stepping them must not allocate: it is
// the engine half of the allocation-free memory path.
func TestEnginePostStepAllocFree(t *testing.T) {
	e := NewEngine()
	hs := make([]counter, 64)
	post := func() {
		for i := range hs {
			e.Post(Tick(i%8), &hs[i])
		}
		for e.Step() {
		}
	}
	post() // grow the node pool
	if allocs := testing.AllocsPerRun(1000, post); allocs != 0 {
		t.Errorf("Post+Step allocated %.1f allocs/run, want 0", allocs)
	}
	if want := 64 * 1002; hs[0].n*64 != want {
		t.Errorf("handler fired %d times, want %d", hs[0].n, want/64)
	}
}

// Delays on both sides of the wheel's reach: every run sends events
// through the overflow heap and migrates them back into slots, and
// because each run advances the clock by a span that is not a multiple
// of the wheel, a thousand runs rotate time through every slot. Once
// the node pool and the heap's backing slice have grown, none of it
// allocates.
func TestEngineWheelAndOverflowAllocFree(t *testing.T) {
	e := NewEngine()
	delays := []Tick{0, 1, 2, 31, 300, wheelSize - 1, wheelSize, wheelSize + 1, 3*wheelSize + 17, 10 * wheelSize}
	hs := make([]counter, 4*len(delays))
	post := func() {
		for i := range hs {
			e.Post(delays[i%len(delays)], &hs[i])
		}
		for e.Step() {
		}
	}
	post()
	start := e.Now()
	if allocs := testing.AllocsPerRun(1000, post); allocs != 0 {
		t.Errorf("Post+Step across the wheel boundary allocated %.1f allocs/run, want 0", allocs)
	}
	if span := e.Now() - start; span < wheelSize {
		t.Errorf("clock advanced %d ticks, want at least one rotation (%d)", span, wheelSize)
	}
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d after draining, want 0", e.Pending())
	}
}

// A nil handler or callback posts nothing, so optional completions
// never cost an event.
func TestEngineNilHandlerIgnored(t *testing.T) {
	e := NewEngine()
	e.Post(1, nil)
	e.Schedule(1, nil)
	var h Handler = Handle(nil)
	e.PostAt(2, h)
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d after nil posts, want 0", e.Pending())
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	nop := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(Tick(i%64), nop)
		if i%64 == 63 {
			e.Run()
		}
	}
	e.Run()
}

// postStepMix is the delay mix measured on the Fig. 10 cells: about
// 55% next tick, 25% short pipeline latencies, 12% DRAM- and bus-scale
// waits, and a few percent beyond the wheel (flash programs) and far
// beyond it (erases, page faults).
var postStepMix = func() []Tick {
	r := rng.New(7)
	mix := make([]Tick, 0, 1024)
	for len(mix) < cap(mix) {
		switch p := r.Intn(100); {
		case p < 55:
			mix = append(mix, 1)
		case p < 80:
			mix = append(mix, Tick(2+r.Intn(30)))
		case p < 92:
			mix = append(mix, Tick(256+r.Intn(256)))
		case p < 97:
			mix = append(mix, Tick(4096+r.Intn(12288)))
		default:
			mix = append(mix, Tick(1<<20+r.Intn(1<<20)))
		}
	}
	return mix
}()

// token re-posts itself on every firing with the next delay of the
// mix, so a fixed population of tokens keeps the engine at a steady
// pending count.
type token struct {
	e *Engine
	i int
}

func (t *token) Fire() {
	t.i++
	t.e.Post(postStepMix[t.i%len(postStepMix)], t)
}

// BenchmarkEnginePostStep measures one Step (and the Post its handler
// makes) with about 700 events pending, the average the figure cells
// keep in flight.
func BenchmarkEnginePostStep(b *testing.B) {
	e := NewEngine()
	tokens := make([]token, 700)
	for i := range tokens {
		tokens[i] = token{e: e, i: i * 7}
		e.Post(postStepMix[i], &tokens[i])
	}
	b.ReportAllocs()
	for b.Loop() {
		e.Step()
	}
}
