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

// event is 32 bytes: the handler is the record itself, with no
// separate argument word, which keeps siftDown's moves cheap.
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
// The event queue is a hand-rolled 4-ary min-heap rather than
// container/heap: the interface-based heap boxes every pushed event
// into an `any` (one allocation per push) and dispatches every
// comparison through an interface call. A simulation fires hundreds of
// millions of events, so the queue is the hottest structure in the
// whole model; the monomorphic heap pushes and pops with zero
// allocations on the steady state (the backing slice is retained
// across pushes) and a 4-ary layout halves tree depth, trading a few
// extra comparisons per level for far fewer cache-missing swaps.
//
// Events carry a typed Handler. Post with a pooled record allocates
// nothing; Schedule with a closure costs only the closure.
type Engine struct {
	now    Tick
	seq    uint64
	events []event // 4-ary min-heap ordered by event.before
	fired  uint64
}

// NewEngine returns an empty engine at tick zero.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current simulated time.
func (e *Engine) Now() Tick { return e.now }

// Fired reports how many events have been executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are waiting to fire.
func (e *Engine) Pending() int { return len(e.events) }

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
	e.events = append(e.events, event{when: t, seq: e.seq, h: h})
	e.siftUp(len(e.events) - 1)
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

// siftUp restores the heap property after appending at index i.
func (e *Engine) siftUp(i int) {
	ev := e.events[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(e.events[parent]) {
			break
		}
		e.events[i] = e.events[parent]
		i = parent
	}
	e.events[i] = ev
}

// pop removes and returns the minimum event. The backing slice keeps
// its capacity, and the vacated slot is cleared so the fired handler
// does not outlive its turn in the queue.
func (e *Engine) pop() event {
	root := e.events[0]
	n := len(e.events) - 1
	last := e.events[n]
	e.events[n] = event{} // release the handler for GC
	e.events = e.events[:n]
	if n > 0 {
		e.siftDown(last)
	}
	return root
}

// siftDown places ev (the displaced last element) starting from the
// root, walking toward the smaller of up to four children.
func (e *Engine) siftDown(ev event) {
	i, n := 0, len(e.events)
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
			if e.events[c].before(e.events[min]) {
				min = c
			}
		}
		if !e.events[min].before(ev) {
			break
		}
		e.events[i] = e.events[min]
		i = min
	}
	e.events[i] = ev
}

// Step fires the next event, advancing time to it. It reports whether
// an event was available.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.when
	e.fired++
	ev.h.Fire()
	return true
}

// Run fires events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= t, then sets the clock to t.
// Events scheduled beyond t remain pending.
func (e *Engine) RunUntil(t Tick) {
	for len(e.events) > 0 && e.events[0].when <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor advances the clock by d ticks (see RunUntil).
func (e *Engine) RunFor(d Tick) { e.RunUntil(e.now + d) }
