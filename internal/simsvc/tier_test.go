package simsvc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"zng/internal/config"
	"zng/internal/experiments"
	"zng/internal/platform"
	"zng/internal/report"
	"zng/internal/restier"
	"zng/internal/store"
	"zng/internal/workload"
)

// TestTierServedEqualsFreshSimulation is the tier determinism
// satellite: the same cell served from the memory tier, from the
// disk tier, and by a fresh simulation must encode byte-identically
// under report.EncodeResult. This runs the real simulator at a small
// scale.
func TestTierServedEqualsFreshSimulation(t *testing.T) {
	o := experiments.TestOptions()
	mixA := testMix(t, "solo-bfs1")
	mixB := testMix(t, "solo-gaus")
	kind := platform.GDDR5

	fresh, err := platform.RunMix(kind, mixA, o.Scale, o.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := report.EncodeResult(fresh)

	// Service 1: real simulator. Cell A simulates and writes through;
	// once it completes, the re-request for A must come from the memory
	// tier.
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := New(Config{Store: st1, Workers: 1, CacheEntries: 4})
	if _, err := svc1.Run(kind, mixA, o.Scale, o.Cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := svc1.Run(kind, mixB, o.Scale, o.Cfg); err != nil {
		t.Fatal(err)
	}
	memServed, job, err := svc1.DoJob(Request{Kind: kind, Mix: mixA, Scale: o.Scale, Cfg: o.Cfg})
	if err != nil {
		t.Fatal(err)
	}
	if job.Source != "memory" {
		t.Fatalf("re-request of a completed cell served from %q, want the memory tier (stats %+v, tier %+v)",
			job.Source, svc1.Stats(), svc1.TierStats())
	}
	if got := report.EncodeResult(memServed); !bytes.Equal(got, want) {
		t.Errorf("memory-tier result differs from fresh simulation:\nfresh:  %s\nmemory: %s", want, got)
	}
	if st := svc1.Stats(); st.Sims != 2 {
		t.Errorf("service simulated %d times, want 2 (the memory serve must not simulate)", st.Sims)
	}
	svc1.Close()

	// Service 2: fresh process over the same store, simulator rigged to
	// fail — cell A must disk-serve (promoting into the tier), then
	// memory-serve, both byte-identical.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(Config{Store: st2, Workers: 1, CacheEntries: 4,
		Simulate: func(platform.Kind, workload.Mix, float64, config.Config) (platform.Result, error) {
			return platform.Result{}, errors.New("must serve from a tier")
		}})
	defer svc2.Close()
	diskServed, job, err := svc2.DoJob(Request{Kind: kind, Mix: mixA, Scale: o.Scale, Cfg: o.Cfg})
	if err != nil {
		t.Fatal(err)
	}
	if job.Source != "disk" {
		t.Fatalf("fresh process served from %q, want disk", job.Source)
	}
	if got := report.EncodeResult(diskServed); !bytes.Equal(got, want) {
		t.Errorf("disk-tier result differs from fresh simulation:\nfresh: %s\ndisk:  %s", want, got)
	}
	// A then re-serves from the memory tier the disk read promoted it
	// into.
	memServed2, job, err := svc2.DoJob(Request{Kind: kind, Mix: mixA, Scale: o.Scale, Cfg: o.Cfg})
	if err != nil {
		t.Fatal(err)
	}
	if job.Source != "memory" {
		t.Fatalf("post-disk re-request served from %q, want memory (tier %+v)", job.Source, svc2.TierStats())
	}
	if got := report.EncodeResult(memServed2); !bytes.Equal(got, want) {
		t.Errorf("memory-tier result (promoted from disk) differs from fresh simulation:\nfresh:  %s\nmemory: %s", want, got)
	}
}

// TestTierDisabledByDefault pins what a zero CacheEntries config
// means now that the tier cannot be disabled: it selects
// DefaultCacheEntries, a repeat is served from memory, and a cell with
// no memory copy (a restart on the same store) re-serves from disk
// exactly as before the tier existed.
func TestTierDisabledByDefault(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sim := &stubSim{res: platform.Result{IPC: 1}}
	svc := New(Config{Store: st, Workers: 1, Simulate: sim.fn})
	req := Request{Kind: platform.ZnG, Mix: testMix(t, "betw-back"), Scale: 0.5, Cfg: config.Default()}
	if _, err := svc.Do(req); err != nil {
		t.Fatal(err)
	}
	if _, job, err := svc.DoJob(req); err != nil || job.Source != "memory" {
		t.Fatalf("default-tier re-request: source %q err %v, want memory", job.Source, err)
	}
	if ts := svc.TierStats(); ts.Capacity != DefaultCacheEntries || ts.Hits != 1 {
		t.Errorf("zero-config tier reports %+v, want capacity %d and one hit", ts, DefaultCacheEntries)
	}
	svc.Close()

	restarted := New(Config{Store: st, Workers: 1, Simulate: sim.fn})
	defer restarted.Close()
	if _, job, err := restarted.DoJob(req); err != nil || job.Source != "disk" {
		t.Fatalf("post-restart re-request: source %q err %v, want disk", job.Source, err)
	}
	if sim.count() != 1 {
		t.Errorf("simulated %d times, want 1", sim.count())
	}
}

// TestAdmissionBound: past MaxQueue pending simulations, new cells
// are refused with ErrOverloaded — but coalesced attaches and
// completed-cell hits are always admitted, and draining the queue
// restores admission.
func TestAdmissionBound(t *testing.T) {
	sim := &stubSim{gate: make(chan struct{}), started: make(chan struct{}, 1), res: platform.Result{IPC: 1}}
	svc := New(Config{Workers: 1, MaxQueue: 2, Simulate: sim.fn})
	defer svc.Close()

	cell := func(scale float64) Request {
		return Request{Kind: platform.ZnG, Mix: testMix(t, "betw-back"), Scale: scale, Cfg: config.Default()}
	}
	// Cell 1 occupies the worker; cells 2 and 3 fill the queue.
	id1, err := svc.Submit(cell(1))
	if err != nil {
		t.Fatal(err)
	}
	<-sim.started
	for i, sc := range []float64{2, 3} {
		if _, err := svc.Submit(cell(sc)); err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
	}

	// A fourth distinct cell would grow the queue past the bound.
	if _, err := svc.Submit(cell(4)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit past the bound: err = %v, want ErrOverloaded", err)
	}
	if n := svc.Rejected(); n != 1 {
		t.Errorf("Rejected() = %d, want 1", n)
	}
	// Coalescing onto queued or running work does not grow the queue
	// and must be admitted at full load.
	for _, sc := range []float64{1, 2, 3} {
		if _, err := svc.Submit(cell(sc)); err != nil {
			t.Errorf("coalesced attach at scale %v rejected: %v", sc, err)
		}
	}

	// Drain: each gate release lets the single worker finish one job.
	go func() {
		for i := 0; i < 3; i++ {
			<-sim.started
		}
	}()
	close(sim.gate)
	if _, err := svc.Await(id1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Sims < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never drained: stats %+v", svc.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	// The backlog is gone; a new cell and a completed-cell hit are both
	// admitted again.
	if _, err := svc.Do(cell(4)); err != nil {
		t.Errorf("post-drain submit: %v", err)
	}
	if _, err := svc.Do(cell(1)); err != nil {
		t.Errorf("post-drain memo hit: %v", err)
	}
}

// TestRetryAfterBounds pins the estimator's clamp: a cold service
// (no simulation has finished) answers the 1s floor, and the
// estimate never exceeds the 5-minute ceiling.
func TestRetryAfterBounds(t *testing.T) {
	sim := &stubSim{res: platform.Result{IPC: 1}}
	svc := New(Config{Workers: 1, MaxQueue: 1, Simulate: sim.fn})
	defer svc.Close()
	if got := svc.RetryAfter(); got != time.Second {
		t.Errorf("cold RetryAfter = %v, want the 1s floor", got)
	}
	if _, err := svc.Do(Request{Kind: platform.ZnG, Mix: testMix(t, "betw-back"), Scale: 0.5, Cfg: config.Default()}); err != nil {
		t.Fatal(err)
	}
	if got := svc.RetryAfter(); got < time.Second || got > 5*time.Minute {
		t.Errorf("RetryAfter = %v, want within [1s, 5m]", got)
	}
}

// TestAPIAdmissionControl is the HTTP satellite: an overloaded
// service answers 429 with a positive integral Retry-After header on
// both the sync and async run paths, and recovers to 200 once the
// backlog drains.
func TestAPIAdmissionControl(t *testing.T) {
	sim := &stubSim{gate: make(chan struct{}), started: make(chan struct{}, 1), res: platform.Result{IPC: 2}}
	svc := New(Config{Workers: 1, MaxQueue: 1, Simulate: sim.fn})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(NewHandler(svc, config.Default()))
	t.Cleanup(srv.Close)

	// Occupy the worker (async, so the test never blocks) and fill the
	// one queue slot.
	resp, doc := postRun(t, srv.URL, `{"platform":"ZnG","mix":"betw-back","scale":0.5,"async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first async run: %d (%s)", resp.StatusCode, doc["error"])
	}
	<-sim.started
	resp, doc = postRun(t, srv.URL, `{"platform":"ZnG","mix":"betw-back","scale":0.25,"async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue-filling async run: %d (%s)", resp.StatusCode, doc["error"])
	}

	// Overloaded: both paths answer 429 with a Retry-After the client
	// can sleep on.
	for _, body := range []string{
		`{"platform":"ZnG","mix":"betw-back","scale":0.125,"async":true}`,
		`{"platform":"ZnG","mix":"betw-back","scale":0.0625}`,
	} {
		resp, doc = postRun(t, srv.URL, body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overloaded run %s: status %d (%s), want 429", body, resp.StatusCode, doc["error"])
		}
		ra := resp.Header.Get("Retry-After")
		if ra == "" {
			t.Fatal("429 without a Retry-After header")
		}
		var secs int
		if _, err := fmt.Sscanf(ra, "%d", &secs); err != nil || secs < 1 {
			t.Fatalf("Retry-After = %q, want a positive integral second count", ra)
		}
		if len(doc["error"]) == 0 {
			t.Error("429 body carries no error document")
		}
	}

	// Drain and recover: releasing the gate lets the worker finish
	// both jobs; the service must then admit (and answer) again.
	go func() { <-sim.started }()
	close(sim.gate)
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Sims < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("backlog never drained: %+v", svc.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	resp, doc = postRun(t, srv.URL, `{"platform":"ZnG","mix":"betw-back","scale":0.125}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain run: %d (%s), want 200", resp.StatusCode, doc["error"])
	}
	// The rejections surface in /metrics.
	var m metricsDoc
	getJSON(t, srv.URL+"/metrics", &m)
	if m.JobsRejected != 2 {
		t.Errorf("jobs_rejected = %d, want 2", m.JobsRejected)
	}
	if m.Latency == nil || m.Latency["POST /v1/run"].Count == 0 {
		t.Errorf("latency map missing the run endpoint: %+v", m.Latency)
	}
}

// TestAPIMetricsTierGauges: the tier gauges and latency summaries
// surface in /metrics with the tier enabled.
func TestAPIMetricsTierGauges(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Store: st, Workers: 1, CacheEntries: 8, Simulate: fixedSim(1.5)})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(NewHandler(svc, config.Default()))
	t.Cleanup(srv.Close)

	// Two cells simulate; the repeat of the first is a memory-tier hit.
	for _, body := range []string{
		`{"platform":"ZnG","mix":"betw-back","scale":0.5}`,
		`{"platform":"ZnG","mix":"betw-back","scale":0.25}`,
	} {
		if resp, doc := postRun(t, srv.URL, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("run %s: %d (%s)", body, resp.StatusCode, doc["error"])
		}
	}
	resp, doc := postRun(t, srv.URL, `{"platform":"ZnG","mix":"betw-back","scale":0.5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tier-hit run: %d (%s)", resp.StatusCode, doc["error"])
	}
	var job JobInfo
	if err := json.Unmarshal(doc["job"], &job); err != nil {
		t.Fatal(err)
	}
	if job.Source != "memory" {
		t.Fatalf("job source = %q, want memory", job.Source)
	}

	var m metricsDoc
	getJSON(t, srv.URL+"/metrics", &m)
	if m.TierCapacity != 8 || m.TierHits != 1 || m.TierEntries == 0 {
		t.Errorf("tier gauges = capacity %d hits %d entries %d, want 8/1/>0", m.TierCapacity, m.TierHits, m.TierEntries)
	}
	if m.MemoryHits != 1 {
		t.Errorf("memory_hits = %d, want the tier serve counted", m.MemoryHits)
	}
	if m.Latency["sim"].Count != 2 {
		t.Errorf("latency.sim count = %d, want 2", m.Latency["sim"].Count)
	}
}

// TestNegativeCacheServesRepeatFailures: a completed deterministic
// simulation failure is re-served from the tier's negative entry —
// same error text, zero re-simulation.
func TestNegativeCacheServesRepeatFailures(t *testing.T) {
	mixA := testMix(t, "solo-bfs1")
	cfg := config.Default()
	sims := 0
	svc := New(Config{Workers: 1, CacheEntries: 4,
		Simulate: func(kind platform.Kind, mix workload.Mix, scale float64, c config.Config) (platform.Result, error) {
			sims++
			if mix.ID() == mixA.ID() {
				return platform.Result{}, errors.New("zng: apps exceed SMs")
			}
			return platform.Result{Kind: kind, Workload: mix.Name, IPC: 1}, nil
		}})
	defer svc.Close()

	if _, err := svc.Run(platform.ZnG, mixA, 0.5, cfg); err == nil || err.Error() != "zng: apps exceed SMs" {
		t.Fatalf("first run err = %v, want the simulation failure", err)
	}
	if ts := svc.TierStats(); ts.Negatives != 1 {
		t.Fatalf("tier negatives = %d, want 1 (stats %+v)", ts.Negatives, ts)
	}

	_, job, err := svc.DoJob(Request{Kind: platform.ZnG, Mix: mixA, Scale: 0.5, Cfg: cfg})
	if err == nil || err.Error() != "zng: apps exceed SMs" {
		t.Fatalf("replayed err = %v, want the original failure text", err)
	}
	var neg *restier.Negative
	if !errors.As(err, &neg) {
		t.Errorf("replayed error is %T, want a typed *restier.Negative", err)
	}
	if job.State != StateError || job.Source != "memory" {
		t.Errorf("replayed job = %+v, want an error job served from memory", job)
	}
	if sims != 1 {
		t.Errorf("simulator ran %d times, want 1 (the repeat failure must not re-simulate)", sims)
	}
	if st := svc.Stats(); st.MemoryHits != 1 {
		t.Errorf("stats = %+v, want 1 memory hit for the negative serve", st)
	}
}

// pollJob issues one GET /v1/jobs/{id} (id already path-escaped as
// the caller wants it on the wire) without following redirects, and
// decodes the reply envelope.
func pollJob(t *testing.T, base, id string) (int, JobInfo, json.RawMessage) {
	t.Helper()
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	resp, err := client.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Job    JobInfo         `json:"job"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("undecodable poll reply: %v", err)
	}
	return resp.StatusCode, env.Job, env.Result
}

// TestPollAfterTierEviction: polling does not depend on retention. A
// completed cell's id polls as done from the memory tier, and after
// the tier evicts it, as done from disk with the same document bytes.
func TestPollAfterTierEviction(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Store: st, Workers: 1, CacheEntries: 1, Simulate: fixedSim(2.75)})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(NewHandler(svc, config.Default()))
	t.Cleanup(srv.Close)

	resp, doc := postRun(t, srv.URL, `{"platform":"ZnG","mix":"betw-back","scale":0.5,"async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async run: %d (%s)", resp.StatusCode, doc["error"])
	}
	var job JobInfo
	if err := json.Unmarshal(doc["job"], &job); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Await(job.ID); err != nil {
		t.Fatal(err)
	}
	code, mem, memDoc := pollJob(t, srv.URL, job.ID)
	if code != http.StatusOK || mem.State != StateDone || mem.Source != "memory" || len(memDoc) == 0 {
		t.Fatalf("poll of a resident cell = %d %+v, want done from memory with a result", code, mem)
	}

	// Another cell takes the tier's only entry.
	if resp, doc := postRun(t, srv.URL, `{"platform":"ZnG","mix":"betw-back","scale":0.25}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("evicting run: %d (%s)", resp.StatusCode, doc["error"])
	}
	if _, _, ok := svc.tier.GetMem(job.ID); ok {
		t.Fatal("cell still resident after the 1-entry tier took another")
	}
	code, disk, diskDoc := pollJob(t, srv.URL, job.ID)
	if code != http.StatusOK || disk.State != StateDone || disk.Source != "disk" || disk.ID != job.ID {
		t.Fatalf("poll after eviction = %d %+v, want done from disk under id %s", code, disk, job.ID)
	}
	if !bytes.Equal(diskDoc, memDoc) {
		t.Errorf("disk poll differs from memory poll:\nmemory: %s\ndisk:   %s", memDoc, diskDoc)
	}
}

// TestPollCachedFailure: a completed deterministic failure polls as
// error with its original message.
func TestPollCachedFailure(t *testing.T) {
	svc := New(Config{Workers: 1, Simulate: func(platform.Kind, workload.Mix, float64, config.Config) (platform.Result, error) {
		return platform.Result{}, errors.New("zng: apps exceed SMs")
	}})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(NewHandler(svc, config.Default()))
	t.Cleanup(srv.Close)

	resp, doc := postRun(t, srv.URL, `{"platform":"ZnG","mix":"betw-back","scale":0.5}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failing run: status %d, want 500", resp.StatusCode)
	}
	var job JobInfo
	if err := json.Unmarshal(doc["job"], &job); err != nil {
		t.Fatal(err)
	}
	code, polled, result := pollJob(t, srv.URL, job.ID)
	if code != http.StatusOK || polled.State != StateError || polled.Error != "zng: apps exceed SMs" || len(result) != 0 {
		t.Errorf("poll of a cached failure = %d %+v (result %s), want error with the original message", code, polled, result)
	}
}

// TestPollRejectsPathTraversal: the router unescapes %2F, so a job id
// can arrive as "../../x". It must read as unknown before any disk
// access, even with a valid result document planted at the traversal
// target.
func TestPollRejectsPathTraversal(t *testing.T) {
	root := t.TempDir()
	st, err := store.Open(filepath.Join(root, "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	planted := report.EncodeResult(platform.Result{Kind: platform.ZnG, Workload: "planted", IPC: 1})
	if err := os.WriteFile(filepath.Join(root, "x.json"), planted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("../../x"); !ok {
		t.Fatal("planted document is not at the traversal target")
	}
	svc := New(Config{Store: st, Workers: 1, Simulate: fixedSim(1)})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(NewHandler(svc, config.Default()))
	t.Cleanup(srv.Close)

	if code, job, _ := pollJob(t, srv.URL, "..%2F..%2Fx"); code != http.StatusNotFound {
		t.Errorf("traversal poll = %d %+v, want 404", code, job)
	}
}
