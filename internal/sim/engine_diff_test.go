package sim

import (
	"fmt"
	"testing"

	"zng/internal/rng"
)

// refQueue is the reference the wheel is checked against: every
// pending event in one slice, the next one found by a linear scan for
// the least (when, seq). It follows the Engine's documented contract
// and nothing else.
type refQueue struct {
	now    Tick
	seq    uint64
	events []event
}

func (q *refQueue) Now() Tick    { return q.now }
func (q *refQueue) Pending() int { return len(q.events) }

func (q *refQueue) Post(delay Tick, h Handler) {
	if delay < 0 {
		delay = 0
	}
	q.PostAt(q.now+delay, h)
}

func (q *refQueue) PostAt(t Tick, h Handler) {
	if h == nil {
		return
	}
	if t < q.now {
		t = q.now
	}
	q.seq++
	q.events = append(q.events, event{when: t, seq: q.seq, h: h})
}

func (q *refQueue) min() int {
	m := 0
	for i := range q.events {
		if q.events[i].before(q.events[m]) {
			m = i
		}
	}
	return m
}

func (q *refQueue) Step() bool {
	if len(q.events) == 0 {
		return false
	}
	m := q.min()
	ev := q.events[m]
	q.events = append(q.events[:m], q.events[m+1:]...)
	q.now = ev.when
	ev.h.Fire()
	return true
}

func (q *refQueue) RunUntil(t Tick) {
	for len(q.events) > 0 && q.events[q.min()].when <= t {
		q.Step()
	}
	if q.now < t {
		q.now = t
	}
}

func (q *refQueue) RunFor(d Tick) { q.RunUntil(q.now + d) }

// queue is the part of the Engine's API the differential test drives.
type queue interface {
	Now() Tick
	Pending() int
	Post(Tick, Handler)
	PostAt(Tick, Handler)
	Step() bool
	RunUntil(Tick)
	RunFor(Tick)
}

// firing is one fired event as its handler saw the queue.
type firing struct {
	tick    Tick
	id      int
	pending int
}

// side runs one queue under a script drawn from its own generator.
// Both sides start from the same seed and draw only while posting and
// firing, so as long as they fire the same events in the same order
// they make the same posts; the first divergence shows in the logs.
type side struct {
	q      queue
	r      rng.RNG
	nextID int
	log    []firing
}

// probe is a posted event; firing it logs it and may post children.
type probe struct {
	s  *side
	id int
}

func (p *probe) Fire() {
	s := p.s
	s.log = append(s.log, firing{s.q.Now(), p.id, s.q.Pending()})
	// Bounded fan-out keeps the population near its starting size.
	for n := s.r.Intn(3); n > 0; n-- {
		if s.r.Intn(4) == 0 {
			continue
		}
		s.post()
	}
}

// delay draws from the cases the wheel's boundaries make interesting:
// same tick, next tick, either side of the wheel's reach, far future
// and negative delays.
func (s *side) delay() Tick {
	switch s.r.Intn(12) {
	case 0:
		return 0
	case 1, 2, 3:
		return 1
	case 4:
		return wheelSize - 1
	case 5:
		return wheelSize
	case 6:
		return wheelSize + 1
	case 7:
		return 10*wheelSize + Tick(s.r.Intn(10*wheelSize))
	case 8:
		return -Tick(s.r.Intn(5))
	case 9:
		return Tick(s.r.Intn(3 * wheelSize))
	default:
		return Tick(2 + s.r.Intn(64))
	}
}

// post schedules one new probe: mostly by delay, sometimes at an
// absolute tick that may lie in the past.
func (s *side) post() {
	p := &probe{s: s, id: s.nextID}
	s.nextID++
	if s.r.Intn(5) == 0 {
		s.q.PostAt(s.q.Now()-Tick(s.r.Intn(8))+Tick(s.r.Intn(2*wheelSize)), p)
		return
	}
	s.q.Post(s.delay(), p)
}

// act performs one driver action: external posts, single steps, or a
// RunUntil/RunFor whose horizon may stop mid-window or cross the wheel.
func (s *side) act() string {
	switch s.r.Intn(6) {
	case 0:
		n := 1 + s.r.Intn(8)
		for i := 0; i < n; i++ {
			s.post()
		}
		return fmt.Sprintf("post %d", n)
	case 1:
		d := Tick(s.r.Intn(3 * wheelSize))
		s.q.RunUntil(s.q.Now() + d)
		return fmt.Sprintf("RunUntil(now+%d)", d)
	case 2:
		d := Tick(s.r.Intn(64))
		s.q.RunFor(d)
		return fmt.Sprintf("RunFor(%d)", d)
	default:
		n := 1 + s.r.Intn(16)
		for i := 0; i < n && s.q.Step(); i++ {
		}
		return fmt.Sprintf("Step x%d", n)
	}
}

// TestEngineMatchesReference drives the wheel and the reference queue
// in lockstep and requires the same (tick, id, pending) at every
// firing and the same clock and pending count after every action.
func TestEngineMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		wheel := &side{q: NewEngine(), r: rng.New(seed)}
		ref := &side{q: &refQueue{}, r: rng.New(seed)}
		for i := 0; i < 64; i++ {
			wheel.post()
			ref.post()
		}
		for step := 0; step < 3000; step++ {
			what := wheel.act()
			ref.act()
			if len(wheel.log) != len(ref.log) {
				t.Fatalf("seed %d, action %d (%s): %d firings, reference %d",
					seed, step, what, len(wheel.log), len(ref.log))
			}
			for i := range wheel.log {
				if wheel.log[i] != ref.log[i] {
					t.Fatalf("seed %d, action %d (%s): firing %d = %+v, reference %+v",
						seed, step, what, i, wheel.log[i], ref.log[i])
				}
			}
			if wheel.q.Now() != ref.q.Now() || wheel.q.Pending() != ref.q.Pending() {
				t.Fatalf("seed %d, action %d (%s): now/pending = %d/%d, reference %d/%d",
					seed, step, what, wheel.q.Now(), wheel.q.Pending(), ref.q.Now(), ref.q.Pending())
			}
			wheel.log, ref.log = wheel.log[:0], ref.log[:0]
		}
		wheel.q.(*Engine).Run()
		for ref.q.Step() {
		}
		if fmt.Sprint(wheel.log) != fmt.Sprint(ref.log) {
			t.Fatalf("seed %d: final drain diverged from the reference", seed)
		}
		if wheel.q.Pending() != 0 || wheel.q.Now() != ref.q.Now() {
			t.Fatalf("seed %d: drained at %d with %d pending, reference at %d",
				seed, wheel.q.Now(), wheel.q.Pending(), ref.q.Now())
		}
	}
}

// An overflow event migrates into its slot before anything runs at the
// tick that brings it within reach, so a later direct post to the same
// tick fires after it: the wheel keeps (tick, schedule order).
func TestEngineMigrationKeepsScheduleOrder(t *testing.T) {
	const far = wheelSize + 5
	var got []string
	record := func(name string) Handler { return Func(func() { got = append(got, name) }) }

	// Migration on Step: the clock reaches 10, which brings far within
	// the wheel; the handler at 10 then posts directly to far.
	e := NewEngine()
	e.PostAt(far, record("overflow"))
	e.PostAt(10, Func(func() {
		e.PostAt(far, record("direct"))
		e.Post(far-10, record("direct-by-delay"))
	}))
	e.Run()
	want := []string{"overflow", "direct", "direct-by-delay"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("step migration: fired %v, want %v", got, want)
	}

	// Migration on RunUntil with an empty wheel: the clock jumps to a
	// tick that brings two overflow events within reach; a post made
	// after the jump goes behind them.
	got = got[:0]
	e = NewEngine()
	e.PostAt(2*wheelSize, record("first"))
	e.PostAt(2*wheelSize, record("second"))
	e.RunUntil(wheelSize + 1)
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d after RunUntil, want 2", e.Pending())
	}
	e.PostAt(2*wheelSize, record("third"))
	e.Run()
	want = []string{"first", "second", "third"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("RunUntil migration: fired %v, want %v", got, want)
	}
	if e.Now() != 2*wheelSize {
		t.Errorf("Now() = %d, want %d", e.Now(), 2*wheelSize)
	}
}
