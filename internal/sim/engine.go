// Package sim provides the discrete-event simulation kernel used by
// every other component of the ZnG model: an event queue ordered by
// tick, bandwidth-limited ports, and occupancy-limited resources.
//
// One sim.Tick is one GPU core cycle (1.2 GHz in the paper's Table I
// configuration, i.e. 0.8333 ns); device latencies expressed in
// nanoseconds are converted to ticks by internal/config.
//
// The engine is deliberately single-threaded: a simulation is a
// deterministic function of its inputs. Events scheduled for the same
// tick fire in the order they were scheduled, so runs are exactly
// reproducible.
package sim

import "math/bits"

// Tick is simulated time measured in GPU core cycles.
type Tick int64

// Handler is an event's action. Components implement it on their own
// pooled records (a cache lookup, a translation, a memory request), so
// posting an event stores a pointer the caller already holds and
// allocates nothing. Func adapts a plain function.
type Handler interface{ Fire() }

// Func adapts a function to Handler. A func value is pointer-shaped,
// so converting one to a Handler does not allocate beyond whatever
// closure the function itself captured.
type Func func()

// Fire implements Handler.
func (f Func) Fire() { f() }

// wheelSize one-tick slots cover the cache, bus, DRAM and
// flash-register latencies that make up almost every event, while the
// rarer flash programs, erases and page faults wait in the overflow
// heap. Narrower wheels push measurably more events through the heap;
// wider ones only cost memory.
const (
	wheelSize  = 1 << 12
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// node is one wheel entry: the handler and the pool index of the next
// entry in its slot's FIFO. Index 0 is the nil link, so a zero slot is
// an empty one.
type node struct {
	h    Handler
	next int32
}

// slot is a FIFO of nodes linked through the engine's node pool.
type slot struct{ head, tail int32 }

// event is an overflow-heap entry, ordered by (when, seq).
type event struct {
	when Tick
	seq  uint64
	h    Handler
}

// before orders events by (when, seq): time first, then schedule
// order, which is what makes same-tick events fire FIFO.
func (a event) before(b event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// Engine is a discrete-event simulator. The zero value is ready to use.
//
// Almost every event a simulation posts is due within a few hundred
// ticks (a warp step, a bank slot, a bus hop), so the primary queue is
// a timing wheel: one slot per tick for the wheelSize ticks from now
// on, each slot a FIFO of nodes drawn from a pool the engine owns, and
// a bitmap of non-empty slots that finds the next tick with a few
// trailing-zero counts. Posting and firing such an event is constant
// time and allocates nothing once the pool has grown to the peak
// number of pending events.
//
// Events due wheelSize or more ticks ahead wait in a 4-ary min-heap
// ordered by (when, seq). Whenever the clock advances, every heap
// event that has come within the wheel's reach moves into its slot
// before any handler runs at the new time. No direct post can have
// reached those slots yet, so each slot's FIFO holds its events in
// schedule order, and events fire in exactly (tick, schedule order).
//
// Events carry a typed Handler. Post with a pooled record allocates
// nothing; Schedule with a closure costs only the closure.
type Engine struct {
	now   Tick
	seq   uint64
	fired uint64

	queued   int                // events in the wheel
	slots    [wheelSize]slot    // slot t&wheelMask holds tick t's events
	occupied [wheelWords]uint64 // bit i set when slots[i] is non-empty
	nodes    []node             // node pool; nodes[0] is the nil link
	free     int32              // head of the pool's free list

	overflow []event // 4-ary min-heap of events beyond the wheel
}

// NewEngine returns an empty engine at tick zero.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current simulated time.
func (e *Engine) Now() Tick { return e.now }

// Fired reports how many events have been executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are waiting to fire.
func (e *Engine) Pending() int { return e.queued + len(e.overflow) }

// Post fires h delay ticks from now. A negative delay is treated as
// zero (fires later in the current tick, preserving order).
func (e *Engine) Post(delay Tick, h Handler) {
	if delay < 0 {
		delay = 0
	}
	e.PostAt(e.now+delay, h)
}

// PostAt fires h at absolute tick t. A nil h is ignored (callers chain
// optional completion handlers). Posting in the past is an error in
// the caller; it is clamped to the current tick to keep the
// simulation monotonic.
func (e *Engine) PostAt(t Tick, h Handler) {
	if h == nil {
		return
	}
	if t < e.now {
		t = e.now
	}
	e.seq++
	if t-e.now < wheelSize {
		e.enqueue(t, h)
		return
	}
	e.overflow = append(e.overflow, event{when: t, seq: e.seq, h: h})
	e.siftUp(len(e.overflow) - 1)
}

// Schedule runs fn delay ticks from now; a nil fn is ignored.
func (e *Engine) Schedule(delay Tick, fn func()) { e.Post(delay, Handle(fn)) }

// Handle converts an optional callback to a Handler, mapping nil to a
// nil Handler so "no callback" survives the conversion.
func Handle(fn func()) Handler {
	if fn == nil {
		return nil
	}
	return Func(fn)
}

// enqueue appends h to the FIFO of tick t's slot, taking a node from
// the free list or growing the pool. t must lie within the wheel.
func (e *Engine) enqueue(t Tick, h Handler) {
	k := e.free
	if k != 0 {
		e.free = e.nodes[k].next
		e.nodes[k] = node{h: h}
	} else {
		if len(e.nodes) == 0 {
			e.nodes = append(e.nodes, node{}) // the nil link
		}
		k = int32(len(e.nodes))
		e.nodes = append(e.nodes, node{h: h})
	}
	i := int(t & wheelMask)
	s := &e.slots[i]
	if s.tail == 0 {
		s.head = k
		e.occupied[i>>6] |= 1 << (i & 63)
	} else {
		e.nodes[s.tail].next = k
	}
	s.tail = k
	e.queued++
}

// dequeue removes and returns the first handler of tick t's slot,
// which must be non-empty, and returns its node to the free list.
func (e *Engine) dequeue(t Tick) Handler {
	i := int(t & wheelMask)
	s := &e.slots[i]
	k := s.head
	n := &e.nodes[k]
	h := n.h
	s.head = n.next
	if s.head == 0 {
		s.tail = 0
		e.occupied[i>>6] &^= 1 << (i & 63)
	}
	n.h = nil // release the handler for GC
	n.next = e.free
	e.free = k
	e.queued--
	return h
}

// nextQueued returns the tick of the earliest event in the wheel,
// which must be non-empty: the first occupied slot at or after now's,
// wrapping once around the wheel.
func (e *Engine) nextQueued() Tick {
	start := int(e.now & wheelMask)
	w := start >> 6
	if word := e.occupied[w] >> (start & 63); word != 0 {
		return e.now + Tick(bits.TrailingZeros64(word))
	}
	for n := 1; n <= wheelWords; n++ {
		i := (w + n) % wheelWords
		if word := e.occupied[i]; word != 0 {
			slot := i<<6 + bits.TrailingZeros64(word)
			return e.now + Tick((slot-start)&wheelMask)
		}
	}
	panic("sim: wheel count and bitmap disagree")
}

// next reports the tick of the earliest pending event. Every overflow
// event lies beyond every wheel event, so the heap is consulted only
// when the wheel is empty.
func (e *Engine) next() (Tick, bool) {
	if e.queued > 0 {
		return e.nextQueued(), true
	}
	if len(e.overflow) > 0 {
		return e.overflow[0].when, true
	}
	return 0, false
}

// advance moves the clock to t and migrates every overflow event that
// has come within the wheel's reach into its slot. The heap yields
// them in (when, seq) order, ahead of any direct post to those slots.
func (e *Engine) advance(t Tick) {
	e.now = t
	for len(e.overflow) > 0 && e.overflow[0].when-t < wheelSize {
		ev := e.pop()
		e.enqueue(ev.when, ev.h)
	}
}

// siftUp restores the heap property after appending at index i.
func (e *Engine) siftUp(i int) {
	ev := e.overflow[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(e.overflow[parent]) {
			break
		}
		e.overflow[i] = e.overflow[parent]
		i = parent
	}
	e.overflow[i] = ev
}

// pop removes and returns the minimum overflow event. The backing
// slice keeps its capacity, and the vacated slot is cleared so the
// handler does not outlive its turn in the queue.
func (e *Engine) pop() event {
	root := e.overflow[0]
	n := len(e.overflow) - 1
	last := e.overflow[n]
	e.overflow[n] = event{} // release the handler for GC
	e.overflow = e.overflow[:n]
	if n > 0 {
		e.siftDown(last)
	}
	return root
}

// siftDown places ev (the displaced last element) starting from the
// root, walking toward the smaller of up to four children.
func (e *Engine) siftDown(ev event) {
	i, n := 0, len(e.overflow)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if e.overflow[c].before(e.overflow[min]) {
				min = c
			}
		}
		if !e.overflow[min].before(ev) {
			break
		}
		e.overflow[i] = e.overflow[min]
		i = min
	}
	e.overflow[i] = ev
}

// fire advances the clock to t, the earliest pending tick, and fires
// the first event due then.
func (e *Engine) fire(t Tick) {
	if t != e.now {
		e.advance(t)
	}
	h := e.dequeue(t)
	e.fired++
	h.Fire()
}

// Step fires the next event, advancing time to it. It reports whether
// an event was available.
func (e *Engine) Step() bool {
	t, ok := e.next()
	if ok {
		e.fire(t)
	}
	return ok
}

// Run fires events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= t, then sets the clock to t.
// Events scheduled beyond t remain pending.
func (e *Engine) RunUntil(t Tick) {
	for {
		next, ok := e.next()
		if !ok || next > t {
			break
		}
		e.fire(next)
	}
	if e.now < t {
		e.advance(t)
	}
}

// RunFor advances the clock by d ticks (see RunUntil).
func (e *Engine) RunFor(d Tick) { e.RunUntil(e.now + d) }
