package campaign

import (
	"fmt"
	"sync"

	"zng/internal/config"
	"zng/internal/obs"
)

// Campaign is one managed campaign: the spec it was started from,
// its id, and the underlying Run handle.
type Campaign struct {
	ID   string
	Spec Spec
	run  *Run
}

// NewCampaign binds an externally managed id to a started Run — the
// constructor durable coordinators (internal/fleet) use to run
// campaigns under content-addressed ids while reusing the Executor's
// machinery. Manager-started campaigns get sequential ids instead.
func NewCampaign(id string, spec Spec, run *Run) *Campaign {
	return &Campaign{ID: id, Spec: spec, run: run}
}

// Progress snapshots the campaign's live counters.
func (c *Campaign) Progress() Progress { return c.run.Progress() }

// Done reports completion without blocking.
func (c *Campaign) Done() bool { return c.run.Done() }

// Outcome returns the completed outcome, or nil while running.
func (c *Campaign) Outcome() *Outcome { return c.run.Outcome() }

// Wait blocks until every cell resolves and returns the outcome.
func (c *Campaign) Wait() *Outcome { return c.run.Wait() }

// Cells returns the campaign's expanded grid.
func (c *Campaign) Cells() []Cell { return c.run.Cells() }

// Trace reports the campaign's root trace id (0 when untraced).
func (c *Campaign) Trace() obs.ID { return c.run.Trace() }

// DefaultMaxCampaigns bounds the finished campaigns a Manager
// retains. A finished campaign's Outcome carries every cell's result
// plus a full config per cell, so unbounded retention would grow a
// long-lived daemon's heap without limit; evicted campaign ids read as
// unknown, and
// their per-cell results remain wherever the runner put them (for
// zngd, the store).
const DefaultMaxCampaigns = 64

// Manager owns the asynchronous campaign lifecycle behind the zngd
// HTTP API: Start expands and launches a spec, returning an id the
// client can poll for progress and — once finished — the result
// matrix. Retention is bounded: past MaxCampaigns, the oldest
// finished campaigns are evicted (running ones always stay); their
// per-cell results live in whatever runner executed them (for zngd,
// the store-backed service, so a restarted daemon re-serves the
// cells from disk even though the campaign ids themselves are not
// persistent).
type Manager struct {
	exec Executor
	base config.Config
	max  int // guarded by mu (constructor-set, then only mutated via SetMaxCampaigns)

	mu     sync.Mutex
	nextID int                  // guarded by mu
	order  []*Campaign          // guarded by mu
	byID   map[string]*Campaign // guarded by mu
}

// NewManager builds a manager that executes every campaign through
// the given runner against the base configuration (overrides perturb
// copies of it per cell). Retention defaults to DefaultMaxCampaigns.
func NewManager(r Runner, base config.Config, workers int) *Manager {
	return &Manager{
		exec: Executor{Runner: r, Workers: workers},
		base: base,
		max:  DefaultMaxCampaigns,
		byID: map[string]*Campaign{},
	}
}

// SetTracer wires a tracer into the manager's executor: every
// campaign started afterwards roots a trace. Call before serving
// traffic (the zngd handler does, right after construction).
func (m *Manager) SetTracer(t *obs.Tracer) { m.exec.Tracer = t }

// SetMaxCampaigns overrides the retention bound (0 = unbounded).
func (m *Manager) SetMaxCampaigns(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.max = n
	m.evictLocked()
}

// Start expands and launches a campaign, returning its handle. A spec
// that fails to expand starts nothing.
func (m *Manager) Start(spec Spec) (*Campaign, error) {
	run, err := m.exec.Start(spec, m.base)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.nextID++
	c := &Campaign{ID: fmt.Sprintf("c-%d", m.nextID), Spec: spec, run: run}
	m.order = append(m.order, c)
	m.byID[c.ID] = c
	m.evictLocked()
	m.mu.Unlock()
	// Re-evict when this campaign finishes: campaigns that were
	// running (unevictable) during later Starts must not linger past
	// the bound just because no further Start ever happens.
	go func() {
		run.Wait()
		m.mu.Lock()
		m.evictLocked()
		m.mu.Unlock()
	}()
	return c, nil
}

// evictLocked drops the oldest finished campaigns past the bound.
// Running campaigns are never evicted, so the retained count can
// transiently exceed the bound while more than max campaigns are
// still in flight.
func (m *Manager) evictLocked() {
	if m.max <= 0 || len(m.order) <= m.max {
		return
	}
	excess := len(m.order) - m.max
	keep := m.order[:0]
	for _, c := range m.order {
		if excess > 0 && c.Done() {
			delete(m.byID, c.ID)
			excess--
			continue
		}
		keep = append(keep, c)
	}
	for i := len(keep); i < len(m.order); i++ {
		m.order[i] = nil
	}
	m.order = keep
}

// Get resolves a campaign by id.
func (m *Manager) Get(id string) (*Campaign, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.byID[id]
	return c, ok
}

// List snapshots every campaign in start order.
func (m *Manager) List() []*Campaign {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Campaign, len(m.order))
	copy(out, m.order)
	return out
}
