package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"zng/internal/config"
	"zng/internal/platform"
	"zng/internal/report"
	"zng/internal/workload"
)

// simCell is one in-process simulation: a platform running a mix whose
// components' specs may carry perturbed seeds, so the simulator sees
// only the generated traces.
type simCell struct {
	kind  platform.Kind
	mix   workload.Mix
	scale float64
	specs []workload.Spec // one per mix component, seeds already applied
}

func (c simCell) String() string {
	return fmt.Sprintf("%s/%s@%g", c.kind, c.mix.Name, c.scale)
}

// newSimCell resolves mix's component specs and offsets every
// component's trace seed by seedOffset (0 keeps the registered
// seeds).
func newSimCell(kind platform.Kind, mix workload.Mix, scale float64, seedOffset int64) (simCell, error) {
	c := simCell{kind: kind, mix: mix, scale: scale}
	for _, comp := range mix.Components {
		spec, err := workload.SpecByName(comp.App)
		if err != nil {
			return simCell{}, err
		}
		spec.Seed += seedOffset
		c.specs = append(c.specs, spec)
	}
	return c, nil
}

// apps instantiates the cell's traces.
func (c simCell) apps() []*workload.App {
	apps := make([]*workload.App, len(c.specs))
	for i, spec := range c.specs {
		apps[i] = workload.NewApp(spec, c.scale*c.mix.Components[i].Weight, i)
	}
	return apps
}

// simRun is one timed RunApps call.
type simRun struct {
	cell    simCell
	res     platform.Result
	doc     []byte // report.EncodeResult, compacted
	host    time.Duration
	allocs  uint64
	allocMB float64
}

// runSim simulates one cell, timing RunApps alone and counting the
// heap objects and bytes it allocates. Nothing else in the process
// allocates while it runs unless a profiler is on.
func runSim(c simCell) (simRun, error) {
	apps := c.apps()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := platform.RunApps(c.kind, c.mix.Name, apps, config.Default())
	host := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return simRun{}, fmt.Errorf("%v: %w", c, err)
	}
	doc, err := compact(report.EncodeResult(res))
	if err != nil {
		return simRun{}, err
	}
	return simRun{
		cell: c, res: res, doc: doc, host: host,
		allocs:  after.Mallocs - before.Mallocs,
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
	}, nil
}

// digest is the hex SHA-256 of an EncodeResult document as the
// simulator emits it (indented, newline-terminated).
func digest(r platform.Result) string {
	sum := sha256.Sum256(report.EncodeResult(r))
	return hex.EncodeToString(sum[:])
}

// tracegen drains every (kernel, warp) stream of the cell's apps and
// returns the time it took: the trace generator's share of a
// simulation, measured without the simulator.
func tracegen(c simCell) time.Duration {
	start := time.Now()
	for _, a := range c.apps() {
		for k := 0; k < a.Kernels(); k++ {
			for w := 0; w < a.Warps(); w++ {
				s := a.Stream(k, w)
				for {
					if _, ok := s.Next(); !ok {
						break
					}
				}
			}
		}
	}
	return time.Since(start)
}

// cpuSeconds reads the process's cumulative GC and total CPU seconds
// from runtime/metrics.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// kindKey names a platform in metric names.
func kindKey(k platform.Kind) string {
	return strings.ToLower(strings.ReplaceAll(k.String(), "-", ""))
}
