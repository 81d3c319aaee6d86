package cmo

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"cmo/internal/naim"
	"cmo/internal/objfile"
	"cmo/internal/obs"
	"cmo/internal/workload"
)

// TestPhaseNanosSumWithinTotal is the regression test for the phase
// bookkeeping: every phase duration must be positive, and — because
// they are all children of one root span measured from a single
// captured start each — their sum can never exceed the total. (The old
// hand-rolled accounting subtracted two separate time.Since reads and
// could go negative under scheduling jitter.)
func TestPhaseNanosSumWithinTotal(t *testing.T) {
	spec := testSpec(55)
	mods := sources(spec)
	b, err := BuildSource(mods, Options{
		Level: O4, SelectPercent: -1,
		Volatile: workload.InputGlobals(),
		NAIM:     naim.Config{ForceLevel: naim.LevelIR, CacheSlots: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := b.Stats
	for _, p := range []struct {
		name string
		ns   int64
	}{
		{"frontend", s.FrontendNanos},
		{"hlo", s.HLONanos},
		{"llo", s.LLONanos},
		{"link", s.LinkNanos},
		{"total", s.TotalNanos},
	} {
		if p.ns <= 0 {
			t.Errorf("%s nanos = %d, want > 0", p.name, p.ns)
		}
	}
	sum := s.FrontendNanos + s.HLONanos + s.LLONanos + s.LinkNanos
	if sum > s.TotalNanos {
		t.Errorf("phase sum %d exceeds total %d", sum, s.TotalNanos)
	}
	if sum < s.TotalNanos/2 {
		t.Errorf("phases account for only %d of %d ns; bookkeeping lost a phase", sum, s.TotalNanos)
	}
}

// TestTracedBuildSpans drives a traced O4 build and checks the span
// hierarchy the exporters rely on: the four pipeline phases under one
// build root, and NAIM loader compact/expand activity nested under the
// hlo phase (the acceptance shape for `cmoc -trace`).
func TestTracedBuildSpans(t *testing.T) {
	spec := testSpec(56)
	mods := sources(spec)
	tr := obs.NewTrace()
	b, err := BuildSource(mods, Options{
		Level: O4, SelectPercent: -1,
		Volatile: workload.InputGlobals(),
		NAIM:     naim.Config{ForceLevel: naim.LevelIR, CacheSlots: 2},
		Trace:    tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Trace() != tr {
		t.Error("Build.Trace() does not return the options trace")
	}

	spans := tr.Spans()
	byName := make(map[string][]obs.SpanRecord)
	var root, hlo obs.SpanRecord
	for _, sp := range spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
		switch sp.Name {
		case "build":
			root = sp
		case "hlo":
			hlo = sp
		}
	}
	for _, phase := range []string{"frontend", "hlo", "llo", "link"} {
		ps := byName[phase]
		if len(ps) != 1 {
			t.Fatalf("got %d %q spans, want 1", len(ps), phase)
		}
		if ps[0].Parent != root.ID {
			t.Errorf("%s span parented to %d, want build root %d", phase, ps[0].Parent, root.ID)
		}
	}
	for _, name := range []string{"naim compact", "naim expand"} {
		underHLO := false
		for _, sp := range byName[name] {
			if sp.Parent == hlo.ID {
				underHLO = true
			}
		}
		if !underHLO {
			t.Errorf("no %q span nested under the hlo phase (got %d total)", name, len(byName[name]))
		}
	}
	if len(byName["parse"]) != len(mods) {
		t.Errorf("got %d parse spans, want one per module (%d)", len(byName["parse"]), len(mods))
	}
	if len(byName["codegen"]) == 0 {
		t.Error("no codegen spans under llo")
	}

	// Span-derived stats must agree with the recorded spans.
	if root.Dur != b.Stats.TotalNanos {
		t.Errorf("root span dur %d != TotalNanos %d", root.Dur, b.Stats.TotalNanos)
	}
	if hlo.Dur != b.Stats.HLONanos {
		t.Errorf("hlo span dur %d != HLONanos %d", hlo.Dur, b.Stats.HLONanos)
	}

	// The Chrome export of a real build must be valid trace-event JSON.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("traced build produced invalid Chrome JSON: %v", err)
	}
	if len(events) < len(spans) {
		t.Errorf("Chrome export has %d events for %d spans", len(events), len(spans))
	}

	// Cache counters mirrored into the trace match the build stats.
	if got, want := tr.Counter("naim.cache_misses").Value(), b.Stats.NAIM.CacheMisses; got != want {
		t.Errorf("naim.cache_misses counter = %d, want %d", got, want)
	}
	if got, want := tr.Counter("naim.evictions").Value(), b.Stats.NAIM.Evictions; got != want {
		t.Errorf("naim.evictions counter = %d, want %d", got, want)
	}
}

// TestTracedBuildMatchesUntraced pins the observer-effect contract:
// tracing must not change the generated image.
func TestTracedBuildMatchesUntraced(t *testing.T) {
	spec := testSpec(57)
	mods := sources(spec)
	opt := Options{
		Level: O4, SelectPercent: -1,
		Volatile: workload.InputGlobals(),
		NAIM:     naim.Config{ForceLevel: naim.LevelIR, CacheSlots: 2},
	}
	plain, err := BuildSource(mods, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Trace = obs.NewTrace()
	traced, err := BuildSource(mods, opt)
	if err != nil {
		t.Fatal(err)
	}
	var pbuf, tbuf bytes.Buffer
	if err := objfile.EncodeImage(&pbuf, plain.Image); err != nil {
		t.Fatal(err)
	}
	if err := objfile.EncodeImage(&tbuf, traced.Image); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pbuf.Bytes(), tbuf.Bytes()) {
		t.Error("tracing changed the encoded image")
	}
}

// TestNAIMLevelCodeInvariance pins the paper's §6.2 reproducibility
// contract along the memory axis: the NAIM level and cache size change
// compile cost, never generated code. A single-slot cache is the
// adversarial case — HLO holds a caller and its callee at once while
// inlining, and an eviction of the checked-out caller mid-mutation
// would silently drop edits (the loader's checkout rule prevents it).
func TestNAIMLevelCodeInvariance(t *testing.T) {
	spec := testSpec(62)
	mods := sources(spec)
	base := Options{Level: O4, SelectPercent: -1, Volatile: workload.InputGlobals()}
	disasm := func(cfg naim.Config) string {
		opt := base
		opt.NAIM = cfg
		b, err := BuildSource(mods, opt)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		return b.Image.Disasm()
	}
	ref := disasm(naim.Config{ForceLevel: naim.LevelOff})
	for _, cfg := range []naim.Config{
		{ForceLevel: naim.LevelIR, CacheSlots: 1},
		{ForceLevel: naim.LevelIR, CacheSlots: 4},
		{ForceLevel: naim.LevelST, CacheSlots: 1},
		{ForceLevel: naim.LevelDisk, CacheSlots: 1},
	} {
		if got := disasm(cfg); got != ref {
			t.Errorf("NAIM %+v changed generated code", cfg)
		}
	}
}

func TestTimingReport(t *testing.T) {
	spec := testSpec(58)
	mods := sources(spec)
	tr := obs.NewTrace()
	b, err := BuildSource(mods, Options{
		Level: O4, SelectPercent: -1,
		Volatile: workload.InputGlobals(),
		NAIM:     naim.Config{ForceLevel: naim.LevelIR, CacheSlots: 2},
		Trace:    tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := b.TimingReport()
	for _, want := range []string{
		"timing:", "frontend", "hlo", "llo", "link",
		"naim:", "naim cache:", "hit rate", "phases:",
		"naim compact", "naim expand",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("TimingReport missing %q:\n%s", want, rep)
		}
	}
	// One line lists every named HLO transform's time, in run order,
	// right under the ipa line.
	checkTransforms := func(rep string) {
		t.Helper()
		i := strings.Index(rep, "\nhlo transforms: ")
		if i < 0 || !strings.Contains(rep[:i], "\nipa: ") {
			t.Fatalf("TimingReport has no hlo transforms line under ipa:\n%s", rep)
		}
		line := rep[i+len("\nhlo transforms: "):]
		line = line[:strings.IndexByte(line, '\n')]
		var names []string
		for _, part := range strings.Split(line, ", ") {
			f := strings.Fields(part)
			if len(f) != 3 || f[2] != "ms" {
				t.Fatalf("malformed transform entry %q in %q", part, line)
			}
			names = append(names, f[0])
		}
		want := "scan inline clone ipcp gforward gdse purecse dce"
		if got := strings.Join(names, " "); got != want {
			t.Errorf("hlo transforms = %q, want %q", got, want)
		}
	}
	checkTransforms(rep)

	// Untraced builds still get the numeric section, just no tree.
	b2, err := BuildSource(mods, Options{
		Level: O4, SelectPercent: -1,
		Volatile: workload.InputGlobals(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep2 := b2.TimingReport()
	if !strings.Contains(rep2, "timing:") || !strings.Contains(rep2, "naim cache:") {
		t.Errorf("untraced TimingReport incomplete:\n%s", rep2)
	}
	if strings.Contains(rep2, "phases:") {
		t.Errorf("untraced TimingReport should not render a phase tree:\n%s", rep2)
	}
	checkTransforms(rep2)

	// Session builds add the cache and graph sections: a warm no-op
	// renders the image-replay line, a warm edit renders per-stage
	// hit/miss plus the dirty-closure figures.
	dir := t.TempDir()
	sopt := Options{Level: O2, Volatile: workload.InputGlobals(), CacheDir: dir}
	if _, err := BuildSource(mods, sopt); err != nil {
		t.Fatal(err)
	}
	noop, err := BuildSource(mods, sopt)
	if err != nil {
		t.Fatal(err)
	}
	if rep := noop.TimingReport(); !strings.Contains(rep, "graph: image replayed") {
		t.Errorf("warm no-op TimingReport missing the image-replay line:\n%s", rep)
	}
	edit, err := BuildSource(editOne(mods, 0), sopt)
	if err != nil {
		t.Fatal(err)
	}
	rep3 := edit.TimingReport()
	for _, want := range []string{
		"session frontend:", "session llo:", "compiled",
		"graph:", "dirty closure", "frontier", "critical path",
	} {
		if !strings.Contains(rep3, want) {
			t.Errorf("warm-edit TimingReport missing %q:\n%s", want, rep3)
		}
	}
}
