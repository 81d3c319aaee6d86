package cmo

import (
	"fmt"
	"testing"

	"cmo/internal/analyze"
	"cmo/internal/obs"
	"cmo/internal/workload"
)

// The session's load-bearing invariant: a warm rebuild writes the same
// image bytes a cold build would, at every optimization level, whether
// nothing changed or one module out of many did. These tests drive the
// whole matrix through a real on-disk repository.

func incrSpec(seed int64) workload.Spec {
	return workload.Spec{
		Name: "incr", Seed: seed,
		Modules: 8, HotPerModule: 2, ColdPerModule: 4, ColdStmts: 10,
		ArrayElems: 32,
		TrainIters: 40, RefIters: 100, TrainMode: 2, RefMode: 4,
	}
}

// editOne returns a copy of mods with a new (uncalled) function
// appended to module i — a semantic edit confined to one module.
func editOne(mods []SourceModule, i int) []SourceModule {
	out := append([]SourceModule(nil), mods...)
	out[i].Text += "\nfunc incr_edit_probe(x int) int { return x + 7; }\n"
	return out
}

func buildCached(t *testing.T, mods []SourceModule, opt Options, dir string) *Build {
	t.Helper()
	opt.CacheDir = dir
	opt.Volatile = workload.InputGlobals()
	b, err := BuildSource(mods, opt)
	if err != nil {
		t.Fatalf("build %v: %v", opt.Level, err)
	}
	if b.Stats.PinLeaks != 0 {
		t.Fatalf("build %v leaked %d pins", opt.Level, b.Stats.PinLeaks)
	}
	return b
}

func TestIncrementalWarmRebuildByteIdentical(t *testing.T) {
	spec := incrSpec(29)
	mods := sources(spec)
	nmods := len(mods)
	if nmods < 8 {
		t.Fatalf("matrix needs >= 8 modules, got %d", nmods)
	}
	db, err := Train(mods, []map[string]int64{trainInputs(spec)}, Options{})
	if err != nil {
		t.Fatalf("train: %v", err)
	}

	configs := []Options{
		{Level: O1, Verify: analyze.Interproc},
		{Level: O2, Verify: analyze.Interproc},
		{Level: O3, Verify: analyze.Interproc},
		{Level: O4, SelectPercent: -1, Verify: analyze.Interproc},
		{Level: O4, PBO: true, DB: db, SelectPercent: 60, Verify: analyze.Interproc},
	}
	for _, opt := range configs {
		name := fmt.Sprintf("%v-sel%g-pbo%v", opt.Level, opt.SelectPercent, opt.PBO)
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()

			cold := buildCached(t, mods, opt, dir)
			coldDis := cold.Image.Disasm()
			if cold.Stats.CacheFrontendHits != 0 || cold.Stats.CacheFrontendMisses != nmods {
				t.Fatalf("cold frontend: %d hits, %d misses; want 0, %d",
					cold.Stats.CacheFrontendHits, cold.Stats.CacheFrontendMisses, nmods)
			}

			// Warm no-op rebuild: the dependency graph sees a clean
			// closure and replays the whole image — zero stage work,
			// output identical.
			warm := buildCached(t, mods, opt, dir)
			if got := warm.Image.Disasm(); got != coldDis {
				t.Errorf("warm no-op rebuild differs from cold build")
			}
			if !warm.Stats.GraphImageReplay {
				t.Errorf("warm no-op rebuild did not replay the image (dirty closure %d)",
					warm.Stats.GraphDirtyClosure)
			}
			if warm.Stats.GraphDirtyClosure != 0 {
				t.Errorf("warm no-op rebuild dirty closure = %d, want 0", warm.Stats.GraphDirtyClosure)
			}
			if warm.Stats.CacheFrontendMisses != 0 {
				t.Errorf("warm no-op rebuild lowered %d modules", warm.Stats.CacheFrontendMisses)
			}

			// The pre-graph path must still replay per artifact: with the
			// ablation knob the frontend revisits every module and the
			// bytes still match.
			nodg := opt
			nodg.NoDepGraph = true
			warmOld := buildCached(t, mods, nodg, dir)
			if got := warmOld.Image.Disasm(); got != coldDis {
				t.Errorf("NoDepGraph warm rebuild differs from cold build")
			}
			if warmOld.Stats.GraphImageReplay {
				t.Errorf("NoDepGraph build replayed the image")
			}
			if warmOld.Stats.CacheFrontendHits != nmods || warmOld.Stats.CacheFrontendMisses != 0 {
				t.Errorf("NoDepGraph warm frontend: %d hits, %d misses; want %d, 0",
					warmOld.Stats.CacheFrontendHits, warmOld.Stats.CacheFrontendMisses, nmods)
			}

			// Edit one module; the warm rebuild must match a cold build
			// of the edited program and re-lower only the edited module.
			edited := editOne(mods, 1)
			coldEdit := buildCached(t, edited, opt, t.TempDir())
			tr := obs.NewTrace()
			wopt := opt
			wopt.Trace = tr
			warmEdit := buildCached(t, edited, wopt, dir)
			if warmEdit.Image.Disasm() != coldEdit.Image.Disasm() {
				t.Errorf("warm rebuild after 1-module edit differs from cold build of the edited program")
			}
			if warmEdit.Stats.CacheFrontendHits != nmods-1 || warmEdit.Stats.CacheFrontendMisses != 1 {
				t.Errorf("warm-edit frontend: %d hits, %d misses; want %d, 1",
					warmEdit.Stats.CacheFrontendHits, warmEdit.Stats.CacheFrontendMisses, nmods-1)
			}
			// The same figures must be visible as obs counters — the
			// contract the CI smoke job and -timing report rely on.
			if got := tr.Counter("session.frontend_hits").Value(); got != int64(nmods-1) {
				t.Errorf("obs session.frontend_hits = %d, want %d", got, nmods-1)
			}
			if got := tr.Counter("session.frontend_misses").Value(); got != 1 {
				t.Errorf("obs session.frontend_misses = %d, want 1", got)
			}
			if opt.Level == O4 {
				if got := tr.Counter("session.hlo_replay_hits").Value(); got != int64(warmEdit.Stats.CacheHLOHits) {
					t.Errorf("obs session.hlo_replay_hits = %d, want %d", got, warmEdit.Stats.CacheHLOHits)
				}
			}
			// The edit dirtied a real closure, and LLO work scaled with
			// it: routines outside the closure decoded cached objects.
			if warmEdit.Stats.GraphDirtyClosure == 0 {
				t.Errorf("warm-edit build saw an empty dirty closure")
			}
			if warmEdit.Stats.CacheLLOHits == 0 {
				t.Errorf("warm-edit build decoded no cached LLO objects")
			}
			// At O3+ the uncalled probe function is dead-code-eliminated
			// and every surviving post-HLO body can legitimately hit, so
			// the at-least-one-compile check applies below O3 only.
			if opt.Level < O3 && warmEdit.Stats.CacheLLOMisses == 0 {
				t.Errorf("warm-edit build compiled nothing — the edit should force at least one compile")
			}
			if total := warmEdit.Stats.CacheLLOHits + warmEdit.Stats.CacheLLOMisses; total != warmEdit.Stats.GraphFrontierDepth {
				t.Errorf("LLO hits+misses = %d, want frontier depth %d", total, warmEdit.Stats.GraphFrontierDepth)
			}
			if got := tr.Counter("session.llo_hits").Value(); got != int64(warmEdit.Stats.CacheLLOHits) {
				t.Errorf("obs session.llo_hits = %d, want %d", got, warmEdit.Stats.CacheLLOHits)
			}
			if got := tr.Counter("graph.dirty_closure").Value(); got != int64(warmEdit.Stats.GraphDirtyClosure) {
				t.Errorf("obs graph.dirty_closure = %d, want %d", got, warmEdit.Stats.GraphDirtyClosure)
			}
		})
	}
}

// recursiveSCCSources is a program whose hot chain runs through a
// mutually recursive pair (is_even/is_odd, one SCC of the call graph),
// beside a chain that never reaches it (bump/scale).
func recursiveSCCSources(oddBase int) []SourceModule {
	return []SourceModule{
		{Name: "rec.minc", Text: fmt.Sprintf(`module rec;
func is_even(n int) int { if (n == 0) { return 1; } return is_odd(n - 1); }
func is_odd(n int) int { if (n == 0) { return %d; } return is_even(n - 1); }
`, oddBase)},
		{Name: "mid.minc", Text: `module mid;
extern func is_even(n int) int;
func parity(x int) int { return is_even(x) * 10 + 1; }
func twice(x int) int { return parity(x) + parity(x + 1); }
`},
		{Name: "leaf.minc", Text: `module leaf;
func scale(x int) int { return x * 5 + 3; }
func bump(x int) int { return scale(x) + 1; }
`},
		{Name: "main.minc", Text: `module main;
var input0 int;
extern func twice(x int) int;
extern func bump(x int) int;
func main() int { return twice(input0 % 20) + bump(input0); }
`},
	}
}

// TestIncrementalWarmEditInRecursiveSCC edits one member of a mutually
// recursive pair. The HLO inline key of every function is a digest of
// its SCC in the condensed call graph, so the edit must reach every
// caller of the pair through the SCC's digest: the warm image must
// match a cache-less cold build of the edited sources, while the chain
// that never reaches the pair still replays. (internal/hlo checks the
// per-function replay decisions for the same shape.)
func TestIncrementalWarmEditInRecursiveSCC(t *testing.T) {
	opt := Options{Level: O4, SelectPercent: -1, Verify: analyze.Interproc}
	dir := t.TempDir()
	buildCached(t, recursiveSCCSources(0), opt, dir)
	edited := recursiveSCCSources(2)
	cold := buildCached(t, edited, opt, t.TempDir())
	warm := buildCached(t, edited, opt, dir)
	if warm.Image.Disasm() != cold.Image.Disasm() {
		t.Errorf("warm rebuild after editing is_odd differs from a cold build of the edited program")
	}
	if warm.Stats.CacheHLOHits == 0 {
		t.Errorf("warm edit replayed no HLO records; the chain outside the SCC should replay")
	}
	if warm.Stats.CacheHLOMisses == 0 {
		t.Errorf("warm edit re-optimized nothing in HLO")
	}
}

// TestIncrementalSessionReuseAndRestart covers the two session
// lifetimes: one Session shared by successive in-process builds, and a
// repository reopened after a (simulated) process restart.
func TestIncrementalSessionReuseAndRestart(t *testing.T) {
	dir := t.TempDir()
	mods := sources(incrSpec(31))
	opt := Options{Level: O4, SelectPercent: -1, Volatile: workload.InputGlobals()}

	sess, err := OpenSession(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt.Session = sess
	cold, err := BuildSource(mods, opt)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := BuildSource(mods, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.GraphImageReplay {
		t.Errorf("shared session warm rebuild did not replay the image")
	}
	if warm.Image.Disasm() != cold.Image.Disasm() {
		t.Errorf("shared-session warm rebuild differs from cold build")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh session over the same directory must reload the
	// persisted graph and replay what the closed one stored.
	opt.Session = nil
	opt.CacheDir = dir
	again, err := BuildSource(mods, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Stats.GraphImageReplay {
		t.Errorf("post-restart warm rebuild did not replay the image")
	}
	if again.Stats.CacheFrontendMisses != 0 {
		t.Errorf("after restart: %d modules lowered, want 0", again.Stats.CacheFrontendMisses)
	}
	if again.Image.Disasm() != cold.Image.Disasm() {
		t.Errorf("post-restart warm rebuild differs from cold build")
	}

	// And with the graph disabled, the per-artifact replay path still
	// serves the same bytes after the restart.
	opt.NoDepGraph = true
	old, err := BuildSource(mods, opt)
	if err != nil {
		t.Fatal(err)
	}
	if old.Stats.CacheFrontendHits != len(mods) || old.Stats.CacheFrontendMisses != 0 {
		t.Errorf("NoDepGraph after restart: %d hits, %d misses; want %d, 0",
			old.Stats.CacheFrontendHits, old.Stats.CacheFrontendMisses, len(mods))
	}
	if old.Image.Disasm() != cold.Image.Disasm() {
		t.Errorf("NoDepGraph post-restart rebuild differs from cold build")
	}
}

// TestIncrementalCacheDirIgnoredWhenSessionSet pins the Options
// contract: an explicit Session wins over CacheDir.
func TestIncrementalCacheDirIgnoredWhenSessionSet(t *testing.T) {
	mods := []SourceModule{
		{Name: "a", Text: "module a;\nfunc id(x int) int { return x; }\n"},
		{Name: "b", Text: "module b;\nextern func id(x int) int;\nfunc main() int { return id(5); }\n"},
	}
	sess, err := OpenSession("") // disconnected
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	b, err := BuildSource(mods, Options{
		Level: O2, Session: sess, CacheDir: t.TempDir(),
		Volatile: workload.InputGlobals(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Stats.CacheFrontendHits != 0 || b.Stats.CacheFrontendMisses != 0 {
		t.Errorf("disconnected session recorded cache traffic: %d hits, %d misses",
			b.Stats.CacheFrontendHits, b.Stats.CacheFrontendMisses)
	}
}
