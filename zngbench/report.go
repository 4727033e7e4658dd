package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"zng/internal/cellkey"
	"zng/internal/config"
	"zng/internal/platform"
	"zng/internal/report"
	"zng/internal/store"
	"zng/internal/workload"
)

// crossCheck holds zngd to the determinism contract: a cell simulated
// in process must serve the same bytes from the daemon.
func (b *bench) crossCheck() {
	for _, c := range b.plan.sim {
		served, ok := b.servedDocs[runCell{Platform: c.kind.String(), Mix: c.mix.Name, Scale: c.scale}]
		if !ok {
			continue
		}
		o := opOK
		if !bytes.Equal(served, b.firstDocs[c.String()]) {
			o = opMismatch
			b.problem("%v: zngd serves different bytes from the in-process simulation", c)
		}
		b.tally.add(o)
	}
}

// rungPhase times the serving stack's in-process layers on the
// workload's own served results: the result codec, the cell key
// derivation and the store.
func (b *bench) rungPhase() error {
	st, err := store.Open(b.scratch("rungs"))
	if err != nil {
		return err
	}
	var enc, dec, key, put, get []float64
	cfg := config.Default()
	const reps = 50
	for _, c := range b.plan.order {
		doc := b.servedDocs[c]
		if doc == nil {
			continue
		}
		kind, err := platform.KindByName(c.Platform)
		if err != nil {
			return err
		}
		mix, err := workload.MixByName(c.Mix)
		if err != nil {
			return err
		}
		res, err := report.DecodeResult(doc)
		if err != nil {
			return fmt.Errorf("decoding served %v: %w", c, err)
		}
		t := time.Now()
		for i := 0; i < reps; i++ {
			doc = report.EncodeResult(res)
		}
		enc = append(enc, perOpUS(t, reps))
		t = time.Now()
		for i := 0; i < reps; i++ {
			if _, err := report.DecodeResult(doc); err != nil {
				return err
			}
		}
		dec = append(dec, perOpUS(t, reps))
		var k string
		t = time.Now()
		for i := 0; i < reps; i++ {
			k = cellkey.Key(kind, mix.ID(), c.Scale, cfg)
		}
		key = append(key, perOpUS(t, reps))
		t = time.Now()
		if err := st.Put(k, res); err != nil {
			return err
		}
		put = append(put, perOpUS(t, 1)/1000)
		t = time.Now()
		got, ok := st.Get(k)
		get = append(get, perOpUS(t, 1))
		if !ok || !bytes.Equal(report.EncodeResult(got), doc) {
			b.problem("%v: store round trip changed the result", c)
		}
	}
	b.rungs = map[string]float64{
		"report.encode_us": median(enc),
		"report.decode_us": median(dec),
		"cellkey.key_us":   median(key),
		"store.put_ms":     median(put),
		"store.get_us":     median(get),
	}
	return os.RemoveAll(st.Dir())
}

func perOpUS(start time.Time, n int) float64 {
	return float64(time.Since(start)) / float64(time.Microsecond) / float64(n)
}

// simRate returns simulated kilo-instructions per host second in
// RunApps, summed over the unprofiled passes, or the profiled ones, and
// the number of passes.
func (b *bench) simRate(profiled bool) (float64, int) {
	var insts uint64
	var host time.Duration
	n := 0
	for p, runs := range b.simRuns {
		if b.profiled[p] != profiled {
			continue
		}
		n++
		for _, r := range runs {
			insts += r.res.Insts
			host += r.host
		}
	}
	return kinstsPerS(insts, host), n
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func kinstsPerS(insts uint64, host time.Duration) float64 {
	if host <= 0 {
		return 0
	}
	return float64(insts) / 1e3 / host.Seconds()
}

// selfPeakRSSMB reads this process's VmHWM.
func selfPeakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseVmHWM(f)
}

// metrics assembles the run's report: end-to-end metrics untraced,
// per-layer metrics traced.
func (b *bench) metrics() ([]named, error) {
	if b.traced {
		return b.layerMetrics(), nil
	}
	rss, err := selfPeakRSSMB()
	if err != nil {
		return nil, err
	}
	rate, passes := b.simRate(false)
	coldS := 0.0
	for _, x := range b.coldS {
		coldS += x
	}
	s := b.serve
	all := tailPercentile(s.latMS, 99)
	lowest := 90.0
	for _, w := range s.windows {
		lowest = min(lowest, w.p90.Pct)
	}
	perWindow := fmt.Sprintf("median over %d windows of %v", len(s.windows), windowWidth)
	return []named{
		{"setup_s", median(b.setup), "s", len(b.setup), "median set-up: trace instantiation, warm-up cell, zngd start"},
		{"sim_kinsts_per_s", rate, "kinst/s", passes, fmt.Sprintf("passes of %d cells: simulated kilo-instructions per host second in RunApps, summed", len(b.plan.sim))},
		{"sim_peak_rss_mb", rss, "MB", 1, "benchmark process VmHWM"},
		{"serve_rps", s.rps(), "1/s", len(s.latMS), fmt.Sprintf("closed loop over %d connection(s); %s of completed requests per second", clients, perWindow)},
		{"serve_p50_ms", s.overWindows(func(w window) float64 { return w.p50.Value }), "ms", len(s.latMS), perWindow + " of each window's p50"},
		{"serve_p90_ms", s.overWindows(func(w window) float64 { return w.p90.Value }), "ms", len(s.latMS),
			fmt.Sprintf("%s of each window's p90 (lowest p%g); over all samples p%g = %.4g ms", perWindow, lowest, all.Pct, all.Value)},
		{"serve_rss_mb", median(s.rssMB), "MB", len(s.rssMB), "median over serving zngd children of VmHWM"},
		{"campaign_cells_per_s", ratio(float64(len(b.plan.order)*len(b.coldS)), coldS), "1/s", len(b.coldS), fmt.Sprintf("cycles of %d cold cells: cells over seconds, summed", len(b.plan.order))},
		{"campaign_resume_s", median(b.resumeS), "s", len(b.resumeS), fmt.Sprintf("median over %d restarts per cycle", resumeRounds)},
	}, nil
}

// layerMetrics reports the traced run's per-layer metrics. Layers a
// workload does not load read zero.
func (b *bench) layerMetrics() []named {
	var out []named
	add := func(name string, v float64, unit string, n int) {
		out = append(out, named{name: name, value: v, unit: unit, samples: n})
	}

	// Simulator: host time per platform over the unprofiled passes
	// (in a traced run, the first), allocation counts and modelled
	// statistics from the first pass.
	runS := map[platform.Kind][]float64{}
	allocs := map[platform.Kind]float64{}
	allocMB := map[platform.Kind]float64{}
	model := map[platform.Kind]platform.Result{}
	for p, runs := range b.simRuns {
		perKind := map[platform.Kind]float64{}
		for _, r := range runs {
			perKind[r.cell.kind] += r.host.Seconds()
			if p == 0 {
				allocs[r.cell.kind] += float64(r.allocs)
				allocMB[r.cell.kind] += r.allocMB
				if _, ok := model[r.cell.kind]; !ok {
					model[r.cell.kind] = r.res
				}
			}
		}
		if !b.profiled[p] {
			for k, s := range perKind {
				runS[k] = append(runS[k], s)
			}
		}
	}
	for _, k := range figureKinds {
		add("platform.run_s."+kindKey(k), median(runS[k]), "s", len(runS[k]))
		add("platform.allocs."+kindKey(k), allocs[k], "count", 1)
		add("platform.alloc_mb."+kindKey(k), allocMB[k], "MB", 1)
	}
	add("workload.tracegen_s", b.tracegenS, "s", 1)
	add("runtime.gc_cpu_frac", ratio(b.gcCPU, b.allCPU), "ratio", 1)
	for _, c := range cpuClasses {
		add("cpu."+c, b.cpuShare[c], "ratio", 1)
	}
	profiledRate, _ := b.simRate(true)
	plainRate, _ := b.simRate(false)
	add("overhead.sim_profiler_frac", 1-ratio(profiledRate, plainRate), "ratio", 1)

	for _, k := range figureKinds {
		r := model[k]
		add("model.ipc."+kindKey(k), r.IPC, "inst/cyc", 1)
		add("model.l2_hit."+kindKey(k), r.L2HitRate, "ratio", 1)
		add("model.tlb_hit."+kindKey(k), r.TLBHitRate, "ratio", 1)
	}
	z, h := model[platform.ZnG], model[platform.HybridGPU]
	add("model.zng.reg_hits", z.Extra["reg_hits"], "count", 1)
	add("model.zng.gc_merges", z.Extra["gc_merges"], "count", 1)
	add("model.zng.prefetch_bytes", z.Extra["prefetch_bytes"], "B", 1)
	add("model.hybridgpu.gc_runs", h.Extra["gc_runs"], "count", 1)
	add("model.hetero.faults", model[platform.Hetero].Extra["faults"], "count", 1)
	add("model.ipc_ratio.zng_over_hybridgpu", ratio(z.IPC, h.IPC), "ratio", 1)

	// Serving stack: /metrics deltas over the traced loop.
	d := b.serveDelta
	for _, m := range []struct{ name, key string }{
		{"simsvc.sims", "sims"}, {"simsvc.memory_hits", "memory_hits"},
		{"simsvc.coalesced", "coalesced"}, {"simsvc.rejected", "jobs_rejected"},
		{"restier.tier_hits", "tier_hits"}, {"restier.tier_misses", "tier_misses"},
	} {
		add(m.name, d[m.key], "count", 1)
	}
	add("simsvc.hit_ratio", ratio(d["memory_hits"]+d["disk_hits"], float64(len(b.serve.latMS))), "ratio", len(b.serve.latMS))
	counts, self := spanStats(b.spans)
	for _, k := range spanKinds {
		add("span."+k+".count", float64(counts[k]), "count", 1)
		if !markerKinds[k] {
			add("span."+k+".self_p50_ms", self[k], "ms", counts[k])
		}
	}
	add("span.client.rtt_p50_ms", median(b.serve.latMS), "ms", len(b.serve.latMS))
	tail := tailPercentile(b.serve.latMS, 99)
	add("span.client.rtt_p99_ms", tail.Value, "ms", tail.Samples)
	add("overhead.serve_p50_ms", median(b.serve.latMS)-median(b.untraced.latMS), "ms", len(b.untraced.latMS))
	add("overhead.serve_rps_frac", 1-ratio(b.serve.rps(), b.untraced.rps()), "ratio", len(b.untraced.latMS))
	for _, name := range []string{"report.encode_us", "report.decode_us", "cellkey.key_us", "store.put_ms", "store.get_us"} {
		unit := "us"
		if name == "store.put_ms" {
			unit = "ms"
		}
		add(name, b.rungs[name], unit, len(b.plan.order))
	}
	return out
}
