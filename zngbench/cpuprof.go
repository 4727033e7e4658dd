package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// cpuClasses are the CPU self-time classes the traced run reports:
// the simulator's packages, then the Go runtime's garbage collector
// and allocator.
var cpuClasses = []string{
	"sim", "gpu", "cache", "mmu", "ftl", "flash", "regcache", "prefetch", "noc",
	"dram", "ssd", "workload", "platform", "gc", "malloc",
}

// Substrings of runtime function names that mark allocation work, and
// then (tested second, since "mallocgc" contains "gc") collector work.
var (
	mallocMarks = []string{"malloc", "mcache", "mcentral", "mheap", "newobject", "newarray",
		"makeslice", "growslice", "nextFree", "memclrNoHeapPointers", "heapSetType", "refill", "allocSpan"}
	gcMarks = []string{"gc", "scan", "mark", "sweep", "greyobject", "findObject", "typePointers",
		"heapBits", "wbBuf", "Barrier", "spanOf", "pageIndexOf"}
)

// classify maps a profiled function name to a cpuClasses entry, or ""
// for code outside them.
func classify(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "zng/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		return pkg
	}
	if !strings.HasPrefix(fn, "runtime.") && fn != "gcWriteBarrier" {
		return ""
	}
	for _, m := range mallocMarks {
		if strings.Contains(fn, m) {
			return "malloc"
		}
	}
	for _, m := range gcMarks {
		if strings.Contains(fn, m) {
			return "gc"
		}
	}
	return ""
}

// cpuShares runs `go tool pprof -top` over CPU profiles, merged, and
// returns each class's share of all sampled CPU time, by self (flat)
// time.
func cpuShares(profiles []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-unit=ms"}, profiles...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTop(strings.NewReader(string(out)))
}

// parseTop folds `pprof -top` rows (flat flat% sum% cum cum% name)
// into per-class shares of the total flat time.
func parseTop(r io.Reader) (map[string]float64, error) {
	byClass := map[string]float64{}
	total := 0.0
	sc := bufio.NewScanner(r)
	inRows := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "flat" && f[1] == "flat%" {
			inRows = true
			continue
		}
		if !inRows || len(f) < 6 {
			continue
		}
		ms, err := parseDuration(f[0])
		if err != nil {
			return nil, err
		}
		total += ms
		if c := classify(f[5]); c != "" {
			byClass[c] += ms
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	for _, c := range cpuClasses {
		if total > 0 {
			shares[c] = byClass[c] / total
		}
	}
	return shares, nil
}

// parseDuration reads a pprof flat value ("0", "12.50ms", "1.2s") as
// milliseconds.
func parseDuration(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	for _, u := range []struct {
		suffix string
		ms     float64
	}{{"ns", 1e-6}, {"us", 1e-3}, {"ms", 1}, {"s", 1e3}} {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return 0, fmt.Errorf("pprof value %q: %w", s, err)
			}
			return f * u.ms, nil
		}
	}
	return 0, fmt.Errorf("pprof value %q: unknown unit", s)
}
