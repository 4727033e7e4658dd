package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// median returns the middle of xs (the mean of the middle two for an
// even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is one latency percentile as reported: the value, the
// percentile it was actually taken at, and the sample count.
type tail struct {
	Value   float64
	Pct     float64
	Samples int
}

// tailPercentile reports the want-th percentile of xs, or — when fewer
// than ten samples would lie beyond it — the highest percentile that
// still has at least ten samples beyond it, rounded down to a tenth of
// a percent. It never reports below the median: with fewer than twenty
// samples the tail is the median.
func tailPercentile(xs []float64, want float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pct := math.Min(want, math.Floor(1000*(1-10/float64(n))+1e-9)/10)
	pct = math.Max(pct, 50)
	return tail{Value: rank(s, pct), Pct: pct, Samples: n}
}

// rank is the nearest-rank percentile of sorted s.
func rank(s []float64, pct float64) float64 {
	i := int(math.Ceil(pct/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// parseVmHWM extracts the peak resident set size, in MiB, from the
// contents of a /proc/<pid>/status file.
func parseVmHWM(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("malformed VmHWM line %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// counters is the numeric top level of a zngd /metrics document.
// Nested blocks (latency, fleet) are ignored: the benchmark takes only
// the flat counters and gauges.
type counters map[string]float64

// parseCounters decodes a /metrics JSON document's numeric top-level
// fields.
func parseCounters(b []byte) (counters, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	out := counters{}
	for k, v := range raw {
		var f float64
		if json.Unmarshal(v, &f) == nil {
			out[k] = f
		}
	}
	return out, nil
}

// delta returns after-before for every counter after carries. A
// counter missing from before counts from zero.
func (after counters) delta(before counters) counters {
	out := counters{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
