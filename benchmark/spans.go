package main

import (
	"sort"

	"cmo/internal/obs"
)

// hloTransforms are the named HLO transform spans, in pipeline order.
var hloTransforms = []string{"scan", "inline", "clone", "ipcp", "gforward", "gdse", "purecse", "dce"}

// pipelineSpans is what one traced build's own span tree (Options.Trace)
// says about where its time went.
type pipelineSpans struct {
	BuildNs int64 `json:"build_ns"`
	// OtherNs is the part of the pipeline's "build" span that none of
	// its child spans covers: time no layer is credited with.
	OtherNs int64 `json:"other_ns"`
	// SelfNs is each HLO transform's span minus its child spans (NAIM
	// activity inside the transform).
	SelfNs map[string]int64 `json:"self_ns"`
}

func readPipelineSpans(tr *obs.Trace) pipelineSpans {
	children := map[uint64][]obs.SpanRecord{}
	var build obs.SpanRecord
	for _, s := range tr.Spans() {
		children[s.Parent] = append(children[s.Parent], s)
		if s.Parent == 0 && s.Name == "build" {
			build = s
		}
	}
	ps := pipelineSpans{
		BuildNs: build.Dur,
		OtherNs: selfTime(build, children[build.ID]),
		SelfNs:  map[string]int64{},
	}
	for _, phase := range children[build.ID] {
		if phase.Name != "hlo" {
			continue
		}
		for _, s := range children[phase.ID] {
			ps.SelfNs[s.Name] += selfTime(s, children[s.ID])
		}
	}
	return ps
}

// selfTime is a span's duration minus the part of it that its children
// cover. Children may overlap each other (Jobs > 1), so their
// intervals are merged before they are subtracted.
func selfTime(s obs.SpanRecord, kids []obs.SpanRecord) int64 {
	type iv struct{ lo, hi int64 }
	lo, hi := s.Start, s.Start+s.Dur
	var ivs []iv
	for _, k := range kids {
		a, z := max(k.Start, lo), min(k.Start+k.Dur, hi)
		if a < z {
			ivs = append(ivs, iv{a, z})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, end := int64(0), lo
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return s.Dur - covered
}
