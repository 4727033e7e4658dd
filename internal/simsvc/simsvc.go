// Package simsvc turns the simulator into a service: a job scheduler
// that fronts the persistent result store (internal/store) with a
// bounded worker pool, a FIFO-with-priority queue and cross-request
// coalescing, so that N concurrent requests for the same simulation
// cell cost exactly one simulation and a cell computed by any past
// process is served from disk without simulating at all.
//
// The service implements the experiments.Runner interface, so the
// figure drivers, the CLIs (-cache) and the zngd daemon all share
// this one code path; what used to be a process-wide memo global in
// internal/experiments is now an injectable runner. Request flow:
//
//	identical cell in flight     -> Coalesced (attach, no new job)
//	memory (LRU result tier)     -> MemoryHits (internal/restier; a
//	                                completed cell's decoded document
//	                                or cached failure)
//	persistent store             -> DiskHits  (worker reads, then
//	                                           promotes into the tier)
//	otherwise                    -> Sims      (worker simulates, then
//	                                           writes through to disk
//	                                           and the tier)
//
// Admission is bounded: with Config.MaxQueue set, a request that
// would grow the pending queue past the bound fails fast with
// ErrOverloaded instead of queueing without limit — the HTTP layer
// maps it to 429 with a Retry-After estimate derived from recent
// per-simulation latency (RetryAfter). Requests that do not grow the
// queue — memory hits, tier hits, coalesced attaches — are always
// admitted.
//
// Completed cells live in one layer only, the result tier. The job
// table holds in-flight cells alone: a cell enters it at admission and
// leaves when its worker finishes, after the outcome is published to
// the tier, so a concurrent request always finds one or the other. A
// job's id is its cell's content address (store.CellKey), so an id
// names the same cell whether it is queued, running or complete, and
// resolves — in-flight table, then memory tier, then store — for as
// long as any layer holds the cell. The tier's entry bound
// (Config.CacheEntries) is the only retention policy.
package simsvc

import (
	"container/heap"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"zng/internal/cellkey"
	"zng/internal/config"
	"zng/internal/experiments"
	"zng/internal/latency"
	"zng/internal/obs"
	"zng/internal/platform"
	"zng/internal/restier"
	"zng/internal/store"
	"zng/internal/workload"
)

// DefaultCacheEntries is the result tier's size when
// Config.CacheEntries is unset.
const DefaultCacheEntries = 4096

// ErrClosed is returned by Submit after Close, and by Await for jobs
// that were still queued when the service shut down.
var ErrClosed = errors.New("simsvc: service closed")

// ErrOverloaded is returned by Submit/Do when admitting the request
// would grow the pending queue past Config.MaxQueue. The work was not
// admitted; the caller should retry after the backlog drains (the
// HTTP layer translates this to 429 with a Retry-After header).
var ErrOverloaded = errors.New("simsvc: service overloaded: pending queue is full")

// SimFunc computes one cell. The default is platform.RunMix; tests
// inject stubs to pin scheduling behavior without paying for
// simulations.
type SimFunc func(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error)

// Config parameterizes a Service.
type Config struct {
	// Store is the persistent read-through/write-through layer; nil
	// runs memory-only (still coalescing, still counting).
	Store *store.Store
	// Workers bounds concurrent simulations (0 = NumCPU).
	Workers int
	// Simulate overrides the simulation function (nil = platform.RunMix).
	Simulate SimFunc
	// CacheEntries sizes the in-memory LRU result tier
	// (internal/restier) fronting the store, in entries: completed
	// cells — simulated, disk-served, or cached failures — stay
	// resident as decoded documents, so the hot working set never pays
	// the store's read+decode cost. ≤ 0 selects DefaultCacheEntries.
	CacheEntries int
	// MaxQueue bounds the pending-job queue (0 = unbounded): a request
	// that would queue a new simulation past the bound fails with
	// ErrOverloaded instead of growing the backlog without limit.
	// Memory hits, tier hits and coalesced attaches are always
	// admitted.
	MaxQueue int
	// Tracer, when set, records per-request spans (queue wait,
	// coalesce attach, tier lookups, simulation, store write-through)
	// for requests that carry a valid trace context. nil — or an
	// untraced request — costs the hot path nothing beyond a struct
	// comparison.
	Tracer *obs.Tracer
}

// State is a job's lifecycle phase.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateError   State = "error"
)

// Request identifies one simulation cell plus its scheduling
// priority. Higher priorities run first; equal priorities run in
// submission order.
type Request struct {
	Kind     platform.Kind
	Mix      workload.Mix
	Scale    float64
	Cfg      config.Config
	Priority int
	// Trace, when valid, parents the spans this request's lifecycle
	// records (the zero value means untraced — the sampled-out case —
	// and no clock is read on the request's behalf).
	Trace obs.SpanContext
}

// JobInfo is the externally visible snapshot of one job, shaped for
// the zngd JSON API. ID is the cell's content address. A completed
// cell reports only what the result tier vouches for — id, state,
// platform, workload, source, error; mix, scale, priority and waiters
// describe an in-flight job.
type JobInfo struct {
	ID       string  `json:"id"`
	State    State   `json:"state"`
	Platform string  `json:"platform"`
	Workload string  `json:"workload"`
	MixID    string  `json:"mix,omitempty"`
	Scale    float64 `json:"scale,omitempty"`
	Priority int     `json:"priority,omitempty"`
	// Waiters counts the extra requests that coalesced onto this job.
	Waiters int `json:"waiters,omitempty"`
	// Source records how the job was satisfied: "sim", "disk" or
	// "memory" — the result tier — (empty until it finishes).
	Source string `json:"source,omitempty"`
	Error  string `json:"error,omitempty"`
}

// keyMemoBound caps the derived-key memo; past it the whole memo is
// flushed (keys simply rederive), which keeps it bounded without LRU
// bookkeeping.
const keyMemoBound = 4096

// keyID is the comparable tuple a cell key derives from. config.Config
// is a flat value type (no slices, maps or pointers) and mixes
// participate through their ID string, so the tuple is a valid map
// key and names exactly what cellkey.Key hashes.
type keyID struct {
	kind  platform.Kind
	mixID string
	scale float64
	cfg   config.Config
}

// job is one in-flight cell; key is both its cell key and its id.
// res and err are written exactly once, before done is closed, so
// readers that have observed the close may read them without the
// service lock.
type job struct {
	seq     uint64
	idx     int // position in the pending heap; -1 once popped
	req     Request
	key     string
	state   State
	source  string
	waiters int
	done    chan struct{}
	res     platform.Result
	err     error
	// trace is the first traced submitter's span context — the parent
	// the job's worker-side spans (queue, tier, sim, store.put) record
	// under. Written at admission before the job is published, read
	// only by the worker that popped it.
	trace obs.SpanContext
	// enq is the admission instant feeding the queue-wait span; set
	// only when the job is traced.
	enq time.Time
}

func (j *job) info() JobInfo {
	info := JobInfo{
		ID:       j.key,
		State:    j.state,
		Platform: j.req.Kind.String(),
		Workload: j.req.Mix.Name,
		MixID:    j.req.Mix.ID(),
		Scale:    j.req.Scale,
		Priority: j.req.Priority,
		Waiters:  j.waiters,
		Source:   j.source,
	}
	if j.err != nil {
		info.Error = j.err.Error()
	}
	return info
}

// doneInfo is the snapshot of a completed cell, built from what the
// layer that answered holds: no job, no request metadata beyond the
// labels.
func doneInfo(id, kind, workload, source string, err error) JobInfo {
	info := JobInfo{ID: id, State: StateDone, Platform: kind, Workload: workload, Source: source}
	if err != nil {
		info.State = StateError
		info.Error = err.Error()
	}
	return info
}

// Service is the coalescing scheduler. Safe for concurrent use.
type Service struct {
	st       *store.Store
	tier     *restier.Tiered
	sim      SimFunc
	maxQueue int
	workers  int
	// tr records request-lifecycle spans; nil disables tracing (every
	// obs call site is nil-safe and short-circuits).
	tr *obs.Tracer
	// simHist records wall-clock per-simulation latency (serving-layer
	// observability only — simulation results never depend on it). It
	// is internally atomic, so workers record without the service lock.
	simHist latency.Histogram

	mu    sync.Mutex
	cond  *sync.Cond              // queue became non-empty, or the service closed
	queue jobQueue                // guarded by mu
	keys  map[keyID]string        // guarded by mu; memoized cell-key derivations (the hot path's SHA-256)
	jobs  map[string]*job         // guarded by mu; cell key -> in-flight job, from admission until finish
	seq   uint64                  // guarded by mu; admissions so far: FIFO tie-break and listing order
	stats experiments.RunnerStats // guarded by mu
	// rejected counts submissions refused with ErrOverloaded. guarded by mu.
	rejected uint64
	// simEWMA tracks recent per-simulation latency in nanoseconds
	// (exponentially weighted, α=0.2) — the Retry-After estimator.
	// guarded by mu.
	simEWMA float64
	// running counts jobs a worker has popped and not yet finished —
	// with the queue depth, the load figure a fleet worker heartbeats
	// to its coordinator. guarded by mu.
	running int
	closed  bool // guarded by mu
	wg      sync.WaitGroup
}

// New starts a service with cfg.Workers worker goroutines. Close it
// to drain.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.Simulate == nil {
		cfg.Simulate = platform.RunMix
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = DefaultCacheEntries
	}
	s := &Service{
		st:       cfg.Store,
		tier:     restier.NewTiered(cfg.CacheEntries, cfg.Store),
		sim:      cfg.Simulate,
		maxQueue: cfg.MaxQueue,
		workers:  cfg.Workers,
		tr:       cfg.Tracer,
		keys:     map[keyID]string{},
		jobs:     map[string]*job{},
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Submit admits a request and returns its job id, the cell's content
// address: the same id whether the request attached to an in-flight
// job (a coalesced attach), was answered from the memory tier (a
// memory hit), or queued a fresh job. Submit never blocks on
// simulation work.
func (s *Service) Submit(req Request) (string, error) {
	a, err := s.submit(req)
	if err != nil {
		return "", err
	}
	return a.key, nil
}

// answer is how the service resolved one cell: j is the in-flight job
// to wait on, or nil when a tier answered for the completed cell, in
// which case res and err are its outcome.
type answer struct {
	key string
	j   *job
	res platform.Result
	err error
}

// wait blocks until the cell's outcome is known.
func (a *answer) wait() (platform.Result, error) {
	if a.j == nil {
		return a.res, a.err
	}
	<-a.j.done
	return a.j.res, a.j.err
}

// submit is the admission core. Resolution order: the in-flight table
// (coalesce), the memory tier (a hit allocates no job), a fresh queued
// job. A tier hit reports source "memory" for THIS request; a waiter
// reports its job's source — request-level serve attribution.
func (s *Service) submit(req Request) (answer, error) {
	id := keyID{kind: req.Kind, mixID: req.Mix.ID(), scale: req.Scale, cfg: req.Cfg}
	s.mu.Lock()
	defer s.mu.Unlock()
	key, ok := s.keys[id]
	if !ok {
		// The SHA-256 over the canonical config encoding costs more
		// than the rest of a hot-path hit put together, so derive it
		// outside the lock and memoize. A concurrent submitter may
		// rederive the same key; both write the identical value.
		s.mu.Unlock()
		derived := store.CellKey(req.Kind, req.Mix.ID(), req.Scale, req.Cfg)
		s.mu.Lock()
		if len(s.keys) >= keyMemoBound {
			s.keys = make(map[keyID]string, keyMemoBound)
		}
		s.keys[id] = derived
		key = derived
	}
	if s.closed {
		return answer{}, ErrClosed
	}
	if j, ok := s.jobs[key]; ok {
		s.stats.Coalesced++
		j.waiters++
		s.note(req, "coalesce", nil)
		// A higher-priority attach promotes a still-queued job,
		// otherwise the new request would silently inherit the old
		// queue position — priority inversion.
		if j.state == StateQueued && req.Priority > j.req.Priority {
			j.req.Priority = req.Priority
			heap.Fix(&s.queue, j.idx)
		}
		return answer{key: key, j: j}, nil
	}
	// A completed cell — its decoded document, or its cached
	// deterministic failure — answers from memory with no queue slot
	// and no worker round-trip. GetMem never touches the disk, so the
	// lookup is safe under the service lock.
	if r, negErr, ok := s.tier.GetMem(key); ok {
		s.stats.MemoryHits++
		s.note(req, memTierName(negErr), negErr)
		return answer{key: key, res: r, err: negErr}, nil
	}
	if s.maxQueue > 0 && len(s.queue) >= s.maxQueue {
		s.rejected++
		return answer{}, ErrOverloaded
	}
	s.seq++
	j := &job{
		seq:   s.seq,
		req:   req,
		key:   key,
		state: StateQueued,
		done:  make(chan struct{}),
	}
	if s.tr != nil && req.Trace.Valid() {
		j.trace = req.Trace
		j.enq = time.Now()
	}
	s.jobs[key] = j
	heap.Push(&s.queue, j)
	s.cond.Signal()
	return answer{key: key, j: j}, nil
}

// Await blocks until the job finishes and returns its result. The id
// resolves like Job's; the result's Workload label is whatever the
// cell's first submitter asked for (Do relabels per caller). On a
// closed service an id no layer holds — a job Close failed — reports
// ErrClosed.
func (s *Service) Await(id string) (platform.Result, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	closed := s.closed
	s.mu.Unlock()
	if ok {
		<-j.done
		return j.res, j.err
	}
	if _, a, ok := s.completed(id); ok {
		return a.wait()
	}
	if closed {
		return platform.Result{}, ErrClosed
	}
	return platform.Result{}, fmt.Errorf("simsvc: unknown job %q", id)
}

// Do is the synchronous request path: submit, wait, and relabel the
// result with the name the caller asked under (aliasing scenarios
// share cells but keep their own labels, matching the experiments
// memo's contract).
func (s *Service) Do(req Request) (platform.Result, error) {
	a, err := s.submit(req)
	if err != nil {
		return platform.Result{}, err
	}
	res, err := a.wait()
	return relabel(res, err, req), err
}

// DoJob is Do plus the satisfied job's final snapshot, for callers
// (the HTTP sync path) that report job metadata alongside the result.
func (s *Service) DoJob(req Request) (platform.Result, JobInfo, error) {
	a, err := s.submit(req)
	if err != nil {
		return platform.Result{}, JobInfo{}, err
	}
	res, err := a.wait()
	return relabel(res, err, req), s.admittedInfo(&a, req), err
}

// SubmitJob is Submit plus the admitted job's snapshot taken at
// admission time.
func (s *Service) SubmitJob(req Request) (JobInfo, error) {
	a, err := s.submit(req)
	if err != nil {
		return JobInfo{}, err
	}
	return s.admittedInfo(&a, req), nil
}

// admittedInfo snapshots an admitted request's job: the memory tier's
// answer built from the request itself, or the job it waits on.
func (s *Service) admittedInfo(a *answer, req Request) JobInfo {
	if a.j == nil {
		return doneInfo(a.key, req.Kind.String(), req.Mix.Name, "memory", a.err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return a.j.info()
}

// relabel stamps a served result with the workload name its caller
// asked under.
func relabel(res platform.Result, err error, req Request) platform.Result {
	if err == nil && req.Mix.Name != "" {
		res.Workload = req.Mix.Name
	}
	return res
}

// Run implements experiments.Runner at default priority — the single
// code path the figure drivers, CLIs and daemon share.
func (s *Service) Run(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
	return s.Do(Request{Kind: kind, Mix: mix, Scale: scale, Cfg: cfg})
}

// RunTraced is Run with the caller's span context attached: the
// request's lifecycle (queue wait, coalesce, tier lookups,
// simulation, store write-through) records as spans parented under
// sc. It implements campaign.TracedRunner.
func (s *Service) RunTraced(sc obs.SpanContext, kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
	return s.Do(Request{Kind: kind, Mix: mix, Scale: scale, Cfg: cfg, Trace: sc})
}

// Tracer exposes the service's tracer (nil when tracing is off) so
// the HTTP layer shares one flight recorder with the scheduler.
func (s *Service) Tracer() *obs.Tracer { return s.tr }

// note records a zero-duration marker span — admission-time outcomes
// (coalesce attach, memory-tier hit, negative replay) that have no
// meaningful extent — for traced requests only. Untraced requests pay
// two comparisons. Called with mu held; the ring has its own brief
// lock and never calls back into the service.
func (s *Service) note(req Request, name string, err error) {
	if s.tr == nil || !req.Trace.Valid() {
		return
	}
	s.tr.Observe(req.Trace, name, "", time.Now(), 0, err)
}

// memTierName names a memory-layer answer's span: a cached
// deterministic failure reads as the negative tier.
func memTierName(err error) string {
	if err != nil {
		return "tier.negative"
	}
	return "tier.memory"
}

// completed resolves the id of a cell no longer in flight: the memory
// tier, then the store (promoting a disk hit), read without the
// service lock. Only a well-formed content address reaches either
// layer — the HTTP router unescapes %2F, so a path id like "../../x"
// must never become a store file name.
func (s *Service) completed(id string) (JobInfo, answer, bool) {
	if !cellkey.Valid(id) {
		return JobInfo{}, answer{}, false
	}
	r, err, tier := s.tier.Get(id)
	if tier == restier.TierNone {
		return JobInfo{}, answer{}, false
	}
	kind := ""
	if err == nil {
		kind = r.Kind.String()
	}
	return doneInfo(id, kind, r.Workload, tier.String(), err), answer{key: id, res: r, err: err}, true
}

// Job snapshots one job by id: the in-flight table, then the memory
// tier, then the store. An id no layer holds is unknown.
func (s *Service) Job(id string) (JobInfo, bool) {
	info, _, ok := s.JobResult(id)
	return info, ok
}

// JobResult snapshots one job by id and — when it is done — its
// result, resolving like Job, so a poll observes "done" together
// with the document (the HTTP poll endpoint's contract).
func (s *Service) JobResult(id string) (JobInfo, platform.Result, bool) {
	s.mu.Lock()
	if j, ok := s.jobs[id]; ok {
		// In the table means queued or running: finish removes a job in
		// the same critical section that completes it.
		info := j.info()
		s.mu.Unlock()
		return info, platform.Result{}, true
	}
	s.mu.Unlock()
	info, a, ok := s.completed(id)
	return info, a.res, ok
}

// Jobs snapshots the in-flight jobs in submission order.
func (s *Service) Jobs() []JobInfo {
	s.mu.Lock()
	inflight := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		inflight = append(inflight, j)
	}
	sort.Slice(inflight, func(a, b int) bool { return inflight[a].seq < inflight[b].seq })
	out := make([]JobInfo, len(inflight))
	for i, j := range inflight {
		out[i] = j.info()
	}
	s.mu.Unlock()
	return out
}

// Stats implements experiments.StatsReporter.
func (s *Service) Stats() experiments.RunnerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Store exposes the persistent layer (nil when memory-only).
func (s *Service) Store() *store.Store { return s.st }

// Close shuts the service down gracefully: new submissions are
// rejected, running simulations drain to completion (their results
// still land in the store), and jobs still queued fail with ErrClosed
// so their waiters unblock. Close returns once every worker has
// exited; it is idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		// Queued jobs fail with ErrClosed and leave the table. The
		// failure is the shutdown's, not the cell's, so it never reaches
		// the tier's negative cache.
		for _, j := range s.queue {
			j.err = ErrClosed
			j.state = StateError
			delete(s.jobs, j.key)
			close(j.done)
		}
		s.queue = nil
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// worker pops jobs in priority-then-FIFO order, satisfying each from
// the persistent store when possible and simulating otherwise.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		j := heap.Pop(&s.queue).(*job)
		j.state = StateRunning
		s.running++
		s.mu.Unlock()

		// Traced jobs record their lifecycle; untraced ones never read
		// the clock on tracing's behalf.
		traced := s.tr != nil && j.trace.Valid()
		var tierStart time.Time
		if traced {
			now := time.Now()
			s.tr.Observe(j.trace, "queue", "", j.enq, now.Sub(j.enq), nil)
			tierStart = now
		}
		if r, negErr, tier := s.tier.Get(j.key); tier != restier.TierNone {
			// A disk hit was promoted into the memory tier on the way
			// through, so the outcome is published before finish removes
			// the job.
			if traced {
				name := "tier." + tier.String()
				if negErr != nil {
					name = "tier.negative"
				}
				s.tr.Observe(j.trace, name, "", tierStart, time.Since(tierStart), negErr)
			}
			s.finish(j, r, negErr, tier.String(), 0)
			continue
		}
		var simSpan *obs.Span
		if traced {
			s.tr.Observe(j.trace, "tier.miss", "", tierStart, time.Since(tierStart), nil)
			simSpan = s.tr.StartSpan(j.trace, "sim", j.req.Kind.String()+"/"+j.req.Mix.ID())
		}
		start := time.Now()
		r, err := s.runCell(j)
		simDur := time.Since(start)
		simSpan.EndErr(err)
		// Publish to the tier before finish removes the job, so a
		// concurrent submit finds the cell in one layer or the other and
		// never simulates it twice.
		if err == nil {
			// tier.Put writes the store first, then the memory tier. A
			// failed write-through only costs a future re-simulation once
			// the memory tier evicts the cell.
			var putStart time.Time
			if traced {
				putStart = time.Now()
			}
			s.tier.Put(j.key, r)
			if traced {
				s.tr.Observe(j.trace, "store.put", "", putStart, time.Since(putStart), nil)
			}
		} else {
			// Every error that reaches a worker is deterministic — the
			// simulator is a pure function of the cell, and runCell folds
			// panics into errors — so cache it: repeat requests for the
			// cell replay the failure from the tier without a worker.
			s.tier.PutNegative(j.key, err.Error())
		}
		s.finish(j, r, err, "sim", simDur)
	}
}

// runCell invokes the simulator for one job, converting a panic —
// e.g. a degenerate client-supplied configuration dividing by zero
// deep inside a model (the zngd /v1/run "config" field is arbitrary
// caller input) — into a deterministic job error instead of killing
// the worker goroutine and with it the whole daemon.
func (s *Service) runCell(j *job) (r platform.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("simsvc: simulation panicked: %v", p)
		}
	}()
	return s.sim(j.req.Kind, j.req.Mix, j.req.Scale, j.req.Cfg)
}

// finish completes a job whose outcome the worker already published
// to the tier: it records the outcome, removes the job from the
// in-flight table and wakes its waiters. simDur is the wall-clock
// simulation time (0 when the job was served from a tier) feeding the
// latency histogram and the Retry-After estimator.
func (s *Service) finish(j *job, r platform.Result, err error, source string, simDur time.Duration) {
	if simDur > 0 {
		s.simHist.Observe(simDur)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	j.res, j.err = r, err
	j.source = source
	if err != nil {
		j.state = StateError
	} else {
		j.state = StateDone
	}
	switch source {
	case "memory":
		s.stats.MemoryHits++
	case "disk":
		s.stats.DiskHits++
	case "sim":
		s.stats.Sims++
		if simDur > 0 {
			if s.simEWMA == 0 {
				s.simEWMA = float64(simDur)
			} else {
				s.simEWMA = 0.8*s.simEWMA + 0.2*float64(simDur)
			}
		}
	}
	delete(s.jobs, j.key)
	close(j.done)
}

// Load reports the service's current backlog — queued plus running
// jobs — the figure a fleet worker heartbeats to its coordinator so
// dispatch can prefer idle peers.
func (s *Service) Load() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue) + s.running
}

// Rejected reports how many submissions admission control refused
// with ErrOverloaded — the jobs_rejected gauge in /metrics.
func (s *Service) Rejected() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rejected
}

// TierStats snapshots the memory result tier's counters — the tier_*
// gauges in /metrics.
func (s *Service) TierStats() restier.CacheStats { return s.tier.CacheStats() }

// SimLatency summarizes recent per-simulation wall-clock latency —
// the latency.sim block in /metrics.
func (s *Service) SimLatency() latency.Snapshot { return s.simHist.Snapshot() }

// SimHistogram exposes the per-simulation latency histogram itself,
// so the Prometheus emitter renders real _bucket series instead of
// re-deriving them from a quantile snapshot.
func (s *Service) SimHistogram() *latency.Histogram { return &s.simHist }

// RetryAfter estimates how long an ErrOverloaded caller should back
// off before retrying: the recent per-simulation latency (EWMA) times
// the queue drain rounds ahead of a new arrival, clamped to [1s, 5m].
// Before any simulation has finished there is no estimate and the
// floor applies.
func (s *Service) RetryAfter() time.Duration {
	s.mu.Lock()
	est := time.Duration(s.simEWMA)
	depth := len(s.queue)
	s.mu.Unlock()
	const floor, ceiling = time.Second, 5 * time.Minute
	if est <= 0 {
		return floor
	}
	// ceil((depth+1)/workers) queue drain rounds before a retry can run.
	wait := est * time.Duration((depth+s.workers)/s.workers)
	if wait < floor {
		return floor
	}
	if wait > ceiling {
		return ceiling
	}
	return wait
}

// jobQueue is the pending-job heap: highest priority first, FIFO
// (submission sequence) within a priority.
type jobQueue []*job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(a, b int) bool {
	if q[a].req.Priority != q[b].req.Priority {
		return q[a].req.Priority > q[b].req.Priority
	}
	return q[a].seq < q[b].seq
}
func (q jobQueue) Swap(a, b int) {
	q[a], q[b] = q[b], q[a]
	q[a].idx, q[b].idx = a, b
}
func (q *jobQueue) Push(x any) {
	j := x.(*job)
	j.idx = len(*q)
	*q = append(*q, j)
}
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	j.idx = -1
	old[n-1] = nil
	*q = old[:n-1]
	return j
}
