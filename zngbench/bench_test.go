package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"zng/internal/obs"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		want    float64
		pct     float64
		atValue float64
	}{
		{n: 2000, want: 99, pct: 99, atValue: 1980},
		{n: 1000, want: 99, pct: 99, atValue: 990},
		{n: 999, want: 99, pct: 98.9, atValue: 989},
		{n: 288, want: 99, pct: 96.5, atValue: 278},
		{n: 100, want: 99, pct: 90, atValue: 90},
		{n: 15, want: 99, pct: 50, atValue: 8},
		{n: 101, want: 50, pct: 50, atValue: 51},
	} {
		got := tailPercentile(seq(tc.n), tc.want)
		if got.Pct != tc.pct || got.Value != tc.atValue || got.Samples != tc.n {
			t.Errorf("n=%d want p%g: got p%g = %g over %d samples, want p%g = %g over %d",
				tc.n, tc.want, got.Pct, got.Value, got.Samples, tc.pct, tc.atValue, tc.n)
		}
		if beyond := float64(tc.n) * (1 - got.Pct/100); got.Pct > 50 && beyond < 10-1e-9 {
			t.Errorf("n=%d: p%g leaves %.2f samples beyond it", tc.n, got.Pct, beyond)
		}
	}
	if got := tailPercentile(nil, 99); got.Samples != 0 || got.Value != 0 {
		t.Errorf("empty input: %+v", got)
	}
}

// TestWindowsIgnoreOneBadWindow: a stall confined to one of three
// windows does not move the windowed p50 or rate, and a partial window
// at the end of a loop is dropped.
func TestWindowsIgnoreOneBadWindow(t *testing.T) {
	var samples []sample
	for w, ms := range []float64{1, 50, 1.2} {
		for i := 0; i < 100; i++ {
			at := time.Duration(w)*windowWidth + time.Duration(i)*windowWidth/100
			samples = append(samples, sample{at: at, ms: ms})
		}
	}
	samples = append(samples, sample{at: 3*windowWidth + windowWidth/2, ms: 99})
	var s serveStats
	s.add(samples, 3*windowWidth+windowWidth*3/4)
	if len(s.windows) != 3 || len(s.latMS) != 301 {
		t.Fatalf("%d windows, %d samples; want 3 and 301", len(s.windows), len(s.latMS))
	}
	if got := s.overWindows(func(w window) float64 { return w.p50.Value }); got != 1.2 {
		t.Errorf("windowed p50 = %g, want 1.2", got)
	}
	if got, want := s.rps(), 100/windowWidth.Seconds(); got != want {
		t.Errorf("windowed rate = %g, want %g", got, want)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
}

// TestFailureAccounting drives the /v1/run client against a fake zngd:
// a 429, a 500 and a wrong result each count as one failed operation.
func TestFailureAccounting(t *testing.T) {
	const good = `{"job":{"id":"j1"},"result":{"kind":"ZnG","ipc":1}}`
	var reply struct {
		code int
		body string
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(reply.code)
		w.Write([]byte(reply.body))
	}))
	defer srv.Close()
	d := &daemon{base: srv.URL, client: srv.Client()}
	want, err := compact([]byte(`{"kind":"ZnG","ipc":1}`))
	if err != nil {
		t.Fatal(err)
	}

	var led tally
	for _, tc := range []struct {
		code int
		body string
		want outcome
	}{
		{http.StatusOK, good, opOK},
		{http.StatusTooManyRequests, `{"error":"overloaded"}`, opRejected},
		{http.StatusInternalServerError, `{"error":"boom"}`, opError},
		{http.StatusOK, `{"job":{},"result":{"kind":"ZnG","ipc":2}}`, opMismatch},
		{http.StatusOK, `{"job":{}}`, opError},
	} {
		reply.code, reply.body = tc.code, tc.body
		code, body, err := d.do(http.MethodPost, "/v1/run", []byte(`{}`))
		o := classifyReply(code, err, body, nil, want)
		if o != tc.want {
			t.Errorf("reply %d %s: outcome %d, want %d", tc.code, tc.body, o, tc.want)
		}
		led.add(o)
	}
	if led.Attempted != 5 || led.failed() != 4 || led.Rejected != 1 || led.Mismatches != 1 || led.Errors != 2 {
		t.Errorf("ledger %+v: want 5 attempted, 4 failed (1 rejected, 1 mismatch, 2 errors)", led)
	}

	// A byte-identical body takes the fast path; other job metadata
	// around the same result is no mismatch; a dead connection fails.
	if o := classifyReply(http.StatusOK, nil, []byte(good), []byte(good), nil); o != opOK {
		t.Errorf("identical body classified %d", o)
	}
	if o := classifyReply(http.StatusOK, nil, []byte(`{"job":{"id":"j2"},"result":{"kind":"ZnG","ipc":1}}`), []byte(good), want); o != opOK {
		t.Errorf("same result, other job metadata classified %d", o)
	}
	srv.Close()
	if _, _, err := d.do(http.MethodPost, "/v1/run", []byte(`{}`)); classifyReply(0, err, nil, nil, want) != opError || err == nil {
		t.Errorf("request to a closed server: err %v", err)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tzngd\nVmPeak:\t  812345 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n"
	mb, err := parseVmHWM(strings.NewReader(status))
	if err != nil || mb != 20 {
		t.Fatalf("VmHWM = %g, %v; want 20 MB", mb, err)
	}
	if _, err := parseVmHWM(strings.NewReader("Name:\tx\n")); err == nil {
		t.Error("missing VmHWM parsed without error")
	}
	if _, err := parseVmHWM(strings.NewReader("VmHWM:\t 12 MB\n")); err == nil {
		t.Error("VmHWM in unexpected units parsed without error")
	}
}

func TestMetricsDelta(t *testing.T) {
	before, err := parseCounters([]byte(`{"sims":3,"memory_hits":10,"tier_hits":0,"latency":{"sim":{"p50_ms":1}}}`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseCounters([]byte(`{"sims":3,"memory_hits":250,"tier_hits":7,"store_entries":48,"fleet":{"peers":0}}`))
	if err != nil {
		t.Fatal(err)
	}
	d := after.delta(before)
	for k, want := range map[string]float64{"sims": 0, "memory_hits": 240, "tier_hits": 7, "store_entries": 48} {
		if d[k] != want {
			t.Errorf("delta %s = %g, want %g", k, d[k], want)
		}
	}
	if _, ok := d["latency"]; ok {
		t.Error("nested latency block parsed as a counter")
	}
	if _, err := parseCounters([]byte(`not json`)); err == nil {
		t.Error("malformed /metrics parsed without error")
	}
}

// TestSelfTimes checks the subtraction on a hand-built tree:
//
//	http    [0,100)
//	  queue [10,30)
//	  sim   [20,50)      overlaps queue: [10,50) covered once
//	    store.put [40,45)
//	  late  [90,120)     reaches past the parent: [90,100) counts
//
// and an unrelated trace reusing a span id as parent does not leak in.
func TestSelfTimes(t *testing.T) {
	recs := []obs.Record{
		{Trace: 1, Span: 1, Name: "http", StartUS: 0, DurUS: 100},
		{Trace: 1, Span: 2, Parent: 1, Name: "queue", StartUS: 10, DurUS: 20},
		{Trace: 1, Span: 3, Parent: 1, Name: "sim", StartUS: 20, DurUS: 30},
		{Trace: 1, Span: 4, Parent: 3, Name: "store.put", StartUS: 40, DurUS: 5},
		{Trace: 1, Span: 5, Parent: 1, Name: "tier.miss", StartUS: 90, DurUS: 30},
		{Trace: 2, Span: 6, Parent: 1, Name: "cell", StartUS: 0, DurUS: 100},
	}
	self := selfTimes(recs)
	for span, want := range map[obs.ID]int64{1: 50, 2: 20, 3: 25, 4: 5, 5: 30, 6: 100} {
		if self[span] != want {
			t.Errorf("span %d self = %d us, want %d", span, self[span], want)
		}
	}
	counts, p50 := spanStats(recs)
	if counts["http"] != 1 || p50["http"] != 0.05 || p50["sim"] != 0.025 {
		t.Errorf("spanStats: counts %v, self p50 %v", counts, p50)
	}
}

func TestParseTop(t *testing.T) {
	top := `File: zngbench
Type: cpu
Showing nodes accounting for 400ms, 100% of 400ms total
      flat  flat%   sum%        cum   cum%
     100ms 25.00% 25.00%      120ms 30.00%  zng/internal/cache.(*Cache).set (inline)
      0.05s 12.50% 37.50%       50ms 12.50%  zng/internal/sim.(*Engine).siftDown
      60ms 15.00% 52.50%       80ms 20.00%  runtime.mallocgcSmallScanNoHeader
      40ms 10.00% 62.50%       40ms 10.00%  runtime.scanobject
      30ms  7.50% 70.00%       30ms  7.50%  gcWriteBarrier
      20ms  5.00% 75.00%       20ms  5.00%  zng/internal/gpu.(*warpCtx).step.func1.1.1
     100ms 25.00%   100%      100ms 25.00%  syscall.Syscall6
         0     0%   100%      270ms 67.50%  main.main
`
	shares, err := parseTop(strings.NewReader(top))
	if err != nil {
		t.Fatal(err)
	}
	for class, want := range map[string]float64{
		"cache": 0.25, "sim": 0.125, "malloc": 0.15, "gc": 0.175, "gpu": 0.05, "flash": 0,
	} {
		if math.Abs(shares[class]-want) > 1e-9 {
			t.Errorf("cpu.%s = %g, want %g", class, shares[class], want)
		}
	}
	if len(shares) != len(cpuClasses) {
		t.Errorf("%d classes reported, want %d", len(shares), len(cpuClasses))
	}
}
