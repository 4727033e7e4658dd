package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"zng/internal/config"
	"zng/internal/obs"
	"zng/internal/platform"
	"zng/internal/workload"
)

// bench is one workload run: the plan, the live zngd children, and
// every measurement the steps take.
type bench struct {
	plan   plan
	zngd   string
	dir    string
	traced bool
	seq    int

	daemons  []*daemon // started and not yet stopped
	tally    tally
	problems []string

	setup []float64 // seconds per set-up repetition

	// Simulation.
	simRuns       [][]simRun // per pass
	profiled      []bool     // per pass: CPU profiler on
	profiles      []string   // CPU profile files of the profiled passes
	gcCPU, allCPU float64    // GC and total CPU seconds over the passes
	cpuShare      map[string]float64
	tracegenS     float64
	firstDocs     map[string][]byte  // sim cell -> first pass document
	servedDocs    map[runCell][]byte // grid cell -> first served result

	// Campaign, one entry per cycle.
	coldS     []float64 // seconds of each cold campaign
	lastStore string    // the last cycle's store, which the round's loop reads
	resumeS   []float64

	// Closed loop.
	serve      serveStats // the reported loops (traced daemons when traced)
	untraced   serveStats // traced runs only: the same loops, untraced
	serveDelta counters   // /metrics deltas summed over the reported loops

	spans []obs.Record       // traced runs: every span collected from zngd
	rungs map[string]float64 // traced runs: in-process serving-stack rungs
}

// serveStats pools the closed loops of a run.
type serveStats struct {
	windows []window  // every whole window of every loop
	latMS   []float64 // every completed request
	rssMB   []float64 // each serving daemon's VmHWM after its loop
}

// window summarises one windowWidth slice of a loop.
type window struct {
	n        int
	p50, p90 tail
}

// windowWidth slices loops into windows short enough that most fall
// wholly inside one of a shared host's fast or slow spells, which last
// from a fraction of a second to seconds. Medians over windows then
// report the fast spells' figures for as long as those cover most of
// the run, where a figure over all requests moves with the share of
// slow spells (a p90 over all requests jumps once that share passes a
// tenth). At the loop's rate a window holds a couple of hundred
// requests, enough for a p90 with twenty beyond it.
const windowWidth = 100 * time.Millisecond

// sample is one completed request: when it completed, from the start
// of its loop, and its round-trip latency.
type sample struct {
	at time.Duration
	ms float64
}

// add pools one loop's samples, cut into its whole windows.
func (s *serveStats) add(samples []sample, elapsed time.Duration) {
	per := make([][]float64, int(elapsed/windowWidth))
	for _, x := range samples {
		s.latMS = append(s.latMS, x.ms)
		if w := int(x.at / windowWidth); w < len(per) {
			per[w] = append(per[w], x.ms)
		}
	}
	for _, xs := range per {
		s.windows = append(s.windows, window{n: len(xs), p50: tailPercentile(xs, 50), p90: tailPercentile(xs, 90)})
	}
}

// rps is the median over windows of completed requests per second.
func (s serveStats) rps() float64 {
	return s.overWindows(func(w window) float64 { return float64(w.n) / windowWidth.Seconds() })
}

// overWindows is the median over windows of f.
func (s serveStats) overWindows(f func(window) float64) float64 {
	vals := make([]float64, len(s.windows))
	for i, w := range s.windows {
		vals[i] = f(w)
	}
	return median(vals)
}

// scratch returns a fresh path under the run directory.
func (b *bench) scratch(name string) string {
	b.seq++
	return filepath.Join(b.dir, fmt.Sprintf("%s-%d", name, b.seq))
}

func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

func (b *bench) start(storeDir string, traced bool) (*daemon, error) {
	dir := b.scratch("zngd")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d, err := startDaemon(b.zngd, dir, storeDir, traced)
	if err != nil {
		return nil, err
	}
	b.daemons = append(b.daemons, d)
	return d, nil
}

func (b *bench) stop(d *daemon) {
	if err := d.stop(); err != nil {
		b.problem("zngd exit: %v", err)
	}
	for i, x := range b.daemons {
		if x == d {
			b.daemons = append(b.daemons[:i], b.daemons[i+1:]...)
			break
		}
	}
}

// stopAll stops every child still running.
func (b *bench) stopAll() {
	for len(b.daemons) > 0 {
		b.stop(b.daemons[0])
	}
}

// execute sets up, then runs rounds of simulation, campaign and
// closed loop until the workload's main step has had its seconds (and
// at least the plan's rounds), so every metric's samples spread over the
// whole run.
func (b *bench) execute() error {
	if err := b.setupPhase(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	b.firstDocs = map[string][]byte{}
	b.servedDocs = map[runCell][]byte{}
	b.serveDelta = counters{}
	var mainT time.Duration // time the main step has had
	for round := 0; round < b.plan.rounds || mainT.Seconds() < b.plan.seconds; round++ {
		var took [3]time.Duration // per phase
		start := time.Now()
		if err := b.simRound(); err != nil {
			return fmt.Errorf("simulation: %w", err)
		}
		took[phaseSim] = time.Since(start)
		start = time.Now()
		d, err := b.campaignCycle()
		if err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
		took[phaseCampaign] = time.Since(start)
		start = time.Now()
		if err := b.serveRound(d); err != nil {
			return fmt.Errorf("closed loop: %w", err)
		}
		took[phaseServe] = time.Since(start)
		mainT += took[b.plan.main]
	}
	if err := b.finishSim(); err != nil {
		return err
	}
	b.crossCheck()
	if b.traced {
		return b.rungPhase()
	}
	return nil
}

// setupPhase times what a run does before its first timed operation:
// instantiating the in-process traces, one tiny warm-up simulation
// (the first cell in a process also pays one-time registry
// initialisation, which must not land in the allocation counts),
// and starting zngd on a fresh store until it answers. It repeats
// setupReps times; the median is setup_s.
func (b *bench) setupPhase() error {
	warm, err := workload.MixByName("bfs1-gaus")
	if err != nil {
		return err
	}
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		for _, c := range b.plan.sim {
			c.apps()
		}
		if _, err := platform.RunMix(platform.ZnG, warm, 0.05, config.Default()); err != nil {
			return err
		}
		d, err := b.start(b.scratch("store"), b.traced)
		if err != nil {
			return err
		}
		b.setup = append(b.setup, time.Since(start).Seconds())
		b.stop(d)
	}
	return nil
}

// simRound runs passes over the sim cells until the round's share of
// simulation time has gone (at least one pass). Traced runs profile
// every pass but the run's first, which stays unprofiled for
// allocation counts free of the profiler's own and for the
// profiler-overhead baseline.
func (b *bench) simRound() error {
	start := time.Now()
	for first := true; first || time.Since(start).Seconds() < b.plan.simSeconds; first = false {
		var prof *os.File
		if b.traced && len(b.simRuns) > 0 {
			var err error
			if prof, err = os.Create(b.scratch("cpu") + ".prof"); err != nil {
				return err
			}
			if err := pprof.StartCPUProfile(prof); err != nil {
				return err
			}
		}
		gc0, cpu0 := cpuSeconds()
		runs := b.simPass()
		gc1, cpu1 := cpuSeconds()
		b.gcCPU += gc1 - gc0
		b.allCPU += cpu1 - cpu0
		if prof != nil {
			pprof.StopCPUProfile()
			if err := prof.Close(); err != nil {
				return err
			}
			b.profiles = append(b.profiles, prof.Name())
		}
		b.simRuns = append(b.simRuns, runs)
		b.profiled = append(b.profiled, prof != nil)
	}
	return nil
}

// simPass simulates every sim cell once and checks each result: the
// committed digest on the first pass (sim-figure, default seed), the
// first pass's bytes on every later one.
func (b *bench) simPass() []simRun {
	var runs []simRun
	for _, c := range b.plan.sim {
		// Each cell starts from a collected heap, so the process's peak
		// RSS does not hang on where the collector's cycles happen to
		// fall across cells.
		runtime.GC()
		r, err := runSim(c)
		if err != nil {
			b.tally.add(opError)
			b.problem("%v", err)
			continue
		}
		runs = append(runs, r)
		key := c.String()
		first, seen := b.firstDocs[key]
		switch {
		case !seen:
			b.firstDocs[key] = r.doc
			if want, pinned := b.plan.digests[key]; pinned && digest(r.res) != want {
				b.tally.add(opMismatch)
				b.problem("%s: EncodeResult digest %s, committed %s", key, digest(r.res), want)
				continue
			}
		case !bytes.Equal(first, r.doc):
			b.tally.add(opMismatch)
			b.problem("%s: pass %d result differs from the first pass", key, len(b.simRuns))
			continue
		}
		b.tally.add(opOK)
	}
	return runs
}

// finishSim folds the traced run's profiles into per-package CPU
// shares and times trace generation alone.
func (b *bench) finishSim() error {
	if !b.traced {
		return nil
	}
	shares, err := cpuShares(b.profiles)
	if err != nil {
		return err
	}
	b.cpuShare = shares
	seen := map[string]bool{}
	for _, c := range b.plan.sim {
		if k := fmt.Sprintf("%s@%g", c.mix.Name, c.scale); !seen[k] {
			seen[k] = true
			b.tracegenS += tracegen(c).Seconds()
		}
	}
	return nil
}

// campaignState is the part of GET /v1/campaigns/{id} the benchmark
// reads.
type campaignState struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Progress struct {
		Total int `json:"total"`
		Done  int `json:"done"`
	} `json:"progress"`
	Table json.RawMessage `json:"table"`
}

// awaitCampaign posts to path (a new campaign or a resume) and polls
// the campaign every poll until it is done, returning its final state
// and the time from the post to the poll that saw it done. The poll
// interval bounds the timing error, and each poll costs the daemon a
// request.
func awaitCampaign(d *daemon, path string, body []byte, poll time.Duration) (campaignState, time.Duration, error) {
	start := time.Now()
	code, b, err := d.do(http.MethodPost, path, body)
	if err != nil {
		return campaignState{}, 0, err
	}
	if code != http.StatusAccepted {
		return campaignState{}, 0, fmt.Errorf("POST %s: %d %s", path, code, bytes.TrimSpace(b))
	}
	var reply struct {
		Campaign campaignState `json:"campaign"`
	}
	if err := json.Unmarshal(b, &reply); err != nil {
		return campaignState{}, 0, err
	}
	for {
		var st campaignState
		if err := d.getJSON("/v1/campaigns/"+reply.Campaign.ID, &st); err != nil {
			return campaignState{}, 0, err
		}
		if st.State == "done" {
			return st, time.Since(start), nil
		}
		if time.Since(start) > 2*time.Minute {
			return campaignState{}, 0, fmt.Errorf("campaign %s not done after 2m", st.ID)
		}
		time.Sleep(poll)
	}
}

// campaignCycle runs a cold campaign over the grid on a fresh store,
// stops the daemon, then restarts it on the same store and resumes the
// campaign resumeRounds times; every resume must replay every cell from
// the journal without simulating. It returns the last restarted
// daemon, still running, for the closed loop.
func (b *bench) campaignCycle() (*daemon, error) {
	spec, err := json.Marshal(struct {
		Name string `json:"name"`
		grid
	}{"zngbench-" + b.plan.name, b.plan.grid})
	if err != nil {
		return nil, err
	}
	cells := len(b.plan.order)
	storeDir := b.scratch("store")
	cold, err := b.start(storeDir, b.traced)
	if err != nil {
		return nil, err
	}
	// A 10 ms poll bounds the error to a third of a percent of a cold
	// campaign of seconds; a tighter one spends a share of the two
	// CPUs the campaign's simulations run on.
	st, took, err := awaitCampaign(cold, "/v1/campaigns", spec, 10*time.Millisecond)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cells; i++ {
		if i < st.Progress.Done {
			b.tally.add(opOK)
		} else {
			b.tally.add(opError)
		}
	}
	if st.Progress.Total != cells || st.Progress.Done != cells {
		b.problem("cold campaign: %d/%d cells done of %d expected", st.Progress.Done, st.Progress.Total, cells)
	}
	b.coldS = append(b.coldS, took.Seconds())
	if b.traced {
		if err := b.collectSpans(cold, 1); err != nil {
			return nil, err
		}
	}
	b.stop(cold)

	var last *daemon
	for round := 0; round < resumeRounds; round++ {
		warm, err := b.start(storeDir, b.traced)
		if err != nil {
			return nil, err
		}
		if last != nil {
			b.stop(last)
		}
		last = warm
		if err := b.resume(warm, st); err != nil {
			return nil, err
		}
	}
	b.lastStore = storeDir
	return last, nil
}

// resume resumes the cold campaign st on d, a daemon restarted over
// its store: every cell must replay from the journal, with no
// simulation, into a table byte-identical to the cold one, and the
// store must hold exactly the grid's unique cells.
func (b *bench) resume(d *daemon, st campaignState) error {
	before, err := d.counters()
	if err != nil {
		return err
	}
	rs, took, err := awaitCampaign(d, "/v1/campaigns/"+st.ID+"/resume", nil, 250*time.Microsecond)
	if err != nil {
		return err
	}
	after, err := d.counters()
	if err != nil {
		return err
	}
	b.resumeS = append(b.resumeS, took.Seconds())
	o := opOK
	if !bytes.Equal(rs.Table, st.Table) {
		b.problem("resumed campaign table differs from the cold table")
		o = opMismatch
	}
	if sims := after.delta(before)["sims"]; sims != 0 {
		b.problem("resume re-simulated %v cells", sims)
		o = opMismatch
	}
	if n, cells := after["store_entries"], len(b.plan.order); int(n) != cells {
		b.problem("store holds %v entries after the campaign, want %d unique cells", n, cells)
		o = opMismatch
	}
	b.tally.add(o)
	if b.traced {
		return b.collectSpans(d, 1)
	}
	return nil
}

// serveRound runs the round's closed loop on d, a daemon restarted over
// the campaign's store, and stops it. Traced runs split the time:
// first an untraced daemon on the same store, then d, which traces
// every request; the difference is the tracing overhead.
func (b *bench) serveRound(d *daemon) error {
	defer b.stop(d)
	seconds := b.plan.serveSeconds
	if b.traced {
		seconds /= 2
		u, err := b.start(b.lastStore, false)
		if err != nil {
			return err
		}
		defer b.stop(u)
		bodies, refs, err := b.prime(u, false)
		if err != nil {
			return err
		}
		if _, err := b.loop(u, &b.untraced, bodies, refs, seconds); err != nil {
			return err
		}
	}
	bodies, refs, err := b.prime(d, b.traced)
	if err != nil {
		return err
	}
	delta, err := b.loop(d, &b.serve, bodies, refs, seconds)
	if err != nil {
		return err
	}
	for k, v := range delta {
		b.serveDelta[k] += v
	}
	if b.traced {
		return b.collectSpans(d, 400)
	}
	return nil
}

// primeSeconds is the unmeasured closed loop before each measured
// one: a freshly restarted daemon's heap and GC pacing, and the
// connections, settle before timing starts.
const primeSeconds = 0.5

// prime warms d over the grid, collecting the warm pass's spans first
// when traced (they hold the disk-tier reads, which the loop's traces
// would push out of the flight recorder), then runs the unmeasured
// loop.
func (b *bench) prime(d *daemon, traced bool) (bodies, refs [][]byte, err error) {
	bodies, refs = b.warm(d)
	if traced {
		if err := b.collectSpans(d, 2*len(bodies)); err != nil {
			return nil, nil, err
		}
	}
	_, err = b.loop(d, &serveStats{}, bodies, refs, primeSeconds)
	return bodies, refs, err
}

// collectSpans adds the span records of d's newest traces.
func (b *bench) collectSpans(d *daemon, traces int) error {
	recs, err := d.spans(traces)
	b.spans = append(b.spans, recs...)
	return err
}
