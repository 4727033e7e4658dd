package main

import (
	"sort"

	"zng/internal/obs"
)

// spanKinds are the zngd span kinds the traced run reports, in the
// order a request or campaign cell meets them.
var spanKinds = []string{
	"http", "queue", "coalesce", "tier.memory", "tier.disk", "tier.miss",
	"sim", "store.put", "dispatch", "cell", "campaign", "journal.write", "journal.replay",
}

// markerKinds are recorded by zngd as zero-duration markers (an
// admission-time memo hit, a coalesce attach, a journal replay), so
// their self time is zero by construction and only their count is
// reported.
var markerKinds = map[string]bool{"coalesce": true, "tier.memory": true, "journal.replay": true}

// selfTimes returns each span's self time in microseconds: its
// duration minus the part of its interval that its direct children
// cover. Overlapping children count once; a child reaching outside its
// parent counts only inside it.
func selfTimes(recs []obs.Record) map[obs.ID]int64 {
	type key struct{ trace, span obs.ID }
	children := map[key][]obs.Record{}
	for _, r := range recs {
		if r.Parent != 0 {
			k := key{r.Trace, r.Parent}
			children[k] = append(children[k], r)
		}
	}
	out := make(map[obs.ID]int64, len(recs))
	for _, r := range recs {
		lo, hi := r.StartUS, r.StartUS+r.DurUS
		kids := children[key{r.Trace, r.Span}]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
		covered, cursor := int64(0), lo
		for _, c := range kids {
			s, e := max(c.StartUS, cursor), min(c.StartUS+c.DurUS, hi)
			if e > s {
				covered += e - s
				cursor = e
			}
		}
		out[r.Span] = r.DurUS - covered
	}
	return out
}

// spanStats folds records into per-kind counts and self-time medians
// (milliseconds).
func spanStats(recs []obs.Record) (counts map[string]int, selfP50MS map[string]float64) {
	self := selfTimes(recs)
	byKind := map[string][]float64{}
	for _, r := range recs {
		byKind[r.Name] = append(byKind[r.Name], float64(self[r.Span])/1000)
	}
	counts, selfP50MS = map[string]int{}, map[string]float64{}
	for kind, xs := range byKind {
		counts[kind] = len(xs)
		selfP50MS[kind] = median(xs)
	}
	return counts, selfP50MS
}
