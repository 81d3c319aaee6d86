package cmo

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"cmo/internal/il"
	"cmo/internal/workload"
)

// TestBackendErrorUnpinsAll: when one routine's codegen fails
// mid-dispatch under Workers > 1, the build returns that error and no
// Build, the dispatcher stops handing out partitions, and no NAIM
// checkout is left behind.
func TestBackendErrorUnpinsAll(t *testing.T) {
	mods := sources(testSpec(31))
	opt := Options{
		Level: O4, SelectPercent: -1,
		Volatile:   workload.InputGlobals(),
		Partitions: 32, Workers: 4,
	}
	ref, err := BuildSource(mods, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Partitioning is a pure function of program content, so the
	// failing build groups routines exactly as the reference did.
	partOf := map[string]int{}
	for _, p := range ref.Partitions {
		for _, fn := range p.Funcs {
			partOf[fn] = p.Index
		}
	}

	// The first routine through codegen is the victim, so the failure
	// lands while the other workers still hold partitions.
	var (
		mu      sync.Mutex
		victim  string
		started = map[int]bool{}
	)
	wantErr := errors.New("injected verify failure")
	testLLOVerify = func(f *il.Function) error {
		mu.Lock()
		defer mu.Unlock()
		started[partOf[f.Name]] = true
		if victim == "" {
			victim = f.Name
		}
		if f.Name == victim {
			return wantErr
		}
		return nil
	}
	defer func() { testLLOVerify = nil }()

	b, err := BuildSource(mods, opt)
	if b != nil {
		t.Fatalf("failing build returned a Build")
	}
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	// buildIL annotates the error when UnloadAll finds leaked checkouts.
	if strings.Contains(err.Error(), "pinned") {
		t.Errorf("failing build leaked pinned pools: %v", err)
	}
	if len(started) >= len(ref.Partitions) {
		t.Errorf("dispatch kept handing out partitions after the failure: %d of %d started",
			len(started), len(ref.Partitions))
	}

	testLLOVerify = nil
	good, err := BuildSource(mods, opt)
	if err != nil {
		t.Fatalf("clean rebuild failed: %v", err)
	}
	if good.Stats.PinLeaks != 0 {
		t.Fatalf("clean rebuild leaked %d pins", good.Stats.PinLeaks)
	}
	if good.Image.Disasm() != ref.Image.Disasm() {
		t.Errorf("clean rebuild differs from the reference build")
	}
}

func TestParallelBuildIdenticalAcrossJobs(t *testing.T) {
	// The deepest configuration: cross-module optimization, PBO, and
	// full interprocedural verification — every parallelized phase
	// (frontend, selectivity, out-of-scope summaries, HLO verify
	// passes, codegen, post-link verify) is exercised. The image must
	// be byte-identical at every job count.
	spec := testSpec(101)
	spec.Modules = 10
	mods := sources(spec)
	db, err := Train(mods, []map[string]int64{trainInputs(spec)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := Options{
		Level: O4, PBO: true, DB: db, SelectPercent: 20,
		Verify:   VerifyInterproc,
		Volatile: workload.InputGlobals(),
	}
	var ref string
	for _, jobs := range []int{1, 2, 4, 8} {
		opt := base
		opt.Jobs = jobs
		b, err := BuildSource(mods, opt)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		dis := b.Image.Disasm()
		if jobs == 1 {
			ref = dis
			continue
		}
		if dis != ref {
			t.Fatalf("jobs=%d: image differs from the sequential build", jobs)
		}
	}
}
