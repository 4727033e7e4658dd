package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// warm requests every grid cell from d twice, in the seed's order: the
// first reply (served from the store after a restart) sets or checks
// the bytes first served for the cell, by any daemon of the run, and
// the second, a memory hit like every closed-loop reply, is the body
// the loop compares against. It returns the request bodies and those
// reference replies.
func (b *bench) warm(d *daemon) (bodies, refs [][]byte) {
	bodies = make([][]byte, len(b.plan.order))
	refs = make([][]byte, len(b.plan.order))
	for i, c := range b.plan.order {
		bodies[i], _ = json.Marshal(c) // a struct of a string and numbers
		for pass := 0; pass < 2; pass++ {
			code, reply, err := d.do(http.MethodPost, "/v1/run", bodies[i])
			if b.servedDocs[c] == nil && err == nil && code == http.StatusOK {
				b.servedDocs[c], _ = resultOf(reply) // nil on a bad reply, which then fails below
			}
			o := classifyReply(code, err, reply, nil, b.servedDocs[c])
			b.tally.add(o)
			if o != opOK {
				b.problem("warm %v: status %d: %v", c, code, err)
				break
			}
			refs[i] = reply
		}
	}
	return bodies, refs
}

// loop runs the closed loop on a warmed d for seconds: clients
// goroutines, each sending its next request only when the previous
// reply is in, walking the seed-ordered grid from staggered offsets.
// Every result must equal the bytes first served for its cell. It pools
// the loop's samples and d's peak RSS into stats and returns the
// /metrics counter deltas over the loop.
func (b *bench) loop(d *daemon, stats *serveStats, bodies, refs [][]byte, seconds float64) (counters, error) {
	// The simulation step leaves garbage behind; collecting it now
	// keeps the client's own GC out of the loop's latencies.
	runtime.GC()
	before, err := d.counters()
	if err != nil {
		return nil, err
	}
	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var (
				lat  []sample
				t    tally
				errs []error
				buf  bytes.Buffer
			)
			for i := g * len(bodies) / clients; time.Now().Before(deadline); i++ {
				i %= len(bodies)
				sent := time.Now()
				code, err := d.doInto(&buf, http.MethodPost, "/v1/run", bodies[i])
				done := time.Now()
				o := classifyReply(code, err, buf.Bytes(), refs[i], b.servedDocs[b.plan.order[i]])
				t.add(o)
				if o != opOK {
					errs = append(errs, fmt.Errorf("%v: status %d: %v", b.plan.order[i], code, err))
					continue
				}
				lat = append(lat, sample{at: done.Sub(start), ms: float64(done.Sub(sent)) / float64(time.Millisecond)})
			}
			mu.Lock()
			defer mu.Unlock()
			samples = append(samples, lat...)
			b.tally.merge(t)
			for _, err := range errs {
				b.problem("serve: %v", err)
			}
		}(g)
	}
	wg.Wait()
	stats.add(samples, time.Since(start))
	after, err := d.counters()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	stats.rssMB = append(stats.rssMB, rss)
	return after.delta(before), nil
}

// classifyReply sorts one /v1/run reply into the failure ledger: a
// transport error or non-200 fails, 429 as a rejection, a 200 without
// a result as an error, and a 200 whose result differs from want as a
// mismatch. A body identical to refBody skips decoding.
func classifyReply(code int, err error, body, refBody, want []byte) outcome {
	switch {
	case err != nil:
		return opError
	case code == http.StatusTooManyRequests:
		return opRejected
	case code != http.StatusOK:
		return opError
	case bytes.Equal(body, refBody):
		return opOK
	}
	res, err := resultOf(body)
	if err != nil || want == nil {
		return opError
	}
	if !bytes.Equal(res, want) {
		return opMismatch
	}
	return opOK
}
