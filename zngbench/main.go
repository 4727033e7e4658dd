// Command zngbench is the repository benchmark. It runs one workload
// against the simulator in process and against a zngd child process
// over HTTP, checks every output it can, and prints the workload's
// metrics: a human-readable table with sample counts, then, as the
// last line of standard output, one JSON object
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// holding the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run: CPU profiler on, zngd tracing every request).
//
// Usage (zngbench/run.sh builds this program and zngd first):
//
//	zngbench -zngd BIN -workdir DIR --workload sim-figure --seed 1 --seconds 20 --trace 0
//
// Every workload runs rounds of the same three steps, sized by the
// workload: in-process simulation (platform.RunApps), a store-backed
// zngd campaign that is stopped, restarted and resumed, and a closed
// loop of keep-alive clients on the restarted daemon. See README.md for
// why each workload exists and which layers it loads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

const (
	// defaultSeed keeps the registered trace seeds, so the sim-figure
	// cells are the paper-figure cells and match committed digests.
	defaultSeed = 1
	// clients is the closed loop's concurrency: one keep-alive
	// connection, so that on the 2-CPU reference host the client and
	// the daemon's handler each have a CPU and latencies measure the
	// serving stack, not the host scheduler.
	clients = 1
	// setupReps is how many times a run sets up, for a median set-up
	// time.
	setupReps = 9
	// resumeRounds is how many times each campaign cycle restarts zngd
	// and resumes the campaign.
	resumeRounds = 12
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", defaultSeed, "workload seed")
		seconds = flag.Float64("seconds", 20, "measured seconds of the workload's main step")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		zngd    = flag.String("zngd", "", "path to the zngd binary")
		workdir = flag.String("workdir", "", "scratch directory for stores and logs (removed on exit)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *zngd, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "zngbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, zngd, workdir string) error {
	if zngd == "" || workdir == "" {
		return errors.New("-zngd and -workdir are required")
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	p, err := planFor(name, seed, seconds)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fmt.Fprintf(os.Stderr, "zngbench: workload %s seed %d seconds %g traced %v; %s, GOMAXPROCS %d, %d CPUs\n",
		name, seed, seconds, traced, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())

	b := &bench{plan: p, zngd: zngd, dir: dir, traced: traced}
	defer b.stopAll()
	if err := b.execute(); err != nil {
		return err
	}
	ms, err := b.metrics()
	if err != nil {
		return err
	}
	correct := len(b.problems) == 0 && b.tally.failed() == 0
	printTable(ms, b)
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "zngbench: check failed:", p)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, b.tally.Attempted, b.tally.failed(), map[string]metric{}}
	for _, m := range ms {
		out.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		b.stopAll()
		os.RemoveAll(dir)
		os.Exit(1)
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// named is a metric with its name and sample count, for the table.
type named struct {
	name    string
	value   float64
	unit    string
	samples int
	note    string
}

func printTable(ms []named, b *bench) {
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	fmt.Printf("%-34s %16s %-6s %8s  %s\n", "metric", "value", "unit", "samples", "note")
	for _, m := range ms {
		fmt.Printf("%-34s %16.6g %-6s %8d  %s\n", m.name, m.value, m.unit, m.samples, m.note)
	}
	fmt.Printf("operations: %d attempted, %d rejected (429), %d errors, %d mismatches\n",
		b.tally.Attempted, b.tally.Rejected, b.tally.Errors, b.tally.Mismatches)
}
