package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	cmo "cmo"
	"cmo/internal/cas"
	"cmo/internal/experiments"
	"cmo/internal/objfile"
	"cmo/internal/obs"
	"cmo/internal/vpa"
	"cmo/internal/workload"
)

// setupRepeats is how many times a run performs its workload's set-up;
// setup_s is the median, and the last set-up is the one the measured
// window uses.
const setupRepeats = 3

// bench is one run's state: the program under test, every timed build,
// and the memo tables the output checks share.
type bench struct {
	cfg  config
	work string // holds the run's cache directories; removed at exit
	rng  *rand.Rand

	// spans holds the benchmark's own spans (session open, build,
	// drain, close, and client-side CAS requests); nil when untraced.
	spans *obs.Trace

	mu         sync.Mutex
	samples    []*sample
	sources    map[[32]byte][]cmo.SourceModule // every source state a timed build saw
	images     map[[32]byte]*vpa.Image         // first image seen per content hash
	setupNs    []int64
	setupCPUNs []int64
	windowNs   int64
	// allocTotal and mallocTotal are set by multi-client workloads,
	// whose per-build allocation deltas overlap: bytes and heap objects
	// allocated across the window.
	allocTotal  uint64
	mallocTotal uint64
	gcCycles    uint32
	gcPauseNs   uint64
	// windowCPUNs is the process CPU time across the window, set by
	// multi-client workloads.
	windowCPUNs int64
	// casServed is the payload the CAS store served during the window.
	casServed int64

	prog program
	// refs memoizes the output checks (see check.go).
	refs checkMemo
	// meters measure the CAS service from outside (traced runs only).
	client *clientMeter
	server *serverMeter
	dirSeq int
}

func newBench(cfg config) (*bench, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.out, "work-")
	if err != nil {
		return nil, err
	}
	b := &bench{
		cfg:     cfg,
		work:    work,
		rng:     rand.New(rand.NewSource(cfg.seed)),
		sources: map[[32]byte][]cmo.SourceModule{},
		images:  map[[32]byte]*vpa.Image{},
	}
	if cfg.trace {
		b.spans = obs.NewTrace()
	}
	return b, nil
}

// program is the generated program a workload builds, with the options
// of its timed builds.
type program struct {
	spec workload.Spec
	mods []cmo.SourceModule
	opt  cmo.Options
	// ref are the program's reference inputs: the VPA run that
	// checks each image, and the one sim_mcycles reports, use them.
	ref map[string]int64
}

// gccLike is the gcc-like preset at 32 modules, built at O4 with every
// module in CMO and no profile.
func (b *bench) gccLike() program {
	p := experiments.SpecPrograms(experiments.Config{})[2]
	p.Spec.Modules = 32
	return b.generate(p.Spec, cmo.Options{Level: cmo.O4, SelectPercent: -1})
}

// mcad1 is the Mcad1 preset (48 modules); the caller completes the
// options after training.
func (b *bench) mcad1() program {
	p := experiments.McadPrograms(experiments.Config{})[0]
	return b.generate(p.Spec, cmo.Options{Level: cmo.O4, SelectPercent: p.ShipSelect})
}

// generate draws the program's generator seed from the run seed, so
// the program under test receives only generated sources and inputs.
func (b *bench) generate(spec workload.Spec, opt cmo.Options) program {
	spec.Seed = b.rng.Int63n(1 << 40)
	var mods []cmo.SourceModule
	for _, m := range spec.Generate() {
		mods = append(mods, cmo.SourceModule{Name: m.Name + ".minc", Text: m.Text})
	}
	opt.Jobs = 2
	opt.Volatile = workload.InputGlobals()
	return program{
		spec: spec,
		mods: mods,
		opt:  opt,
		ref:  map[string]int64{"input0": spec.Ref().Iters, "input1": spec.Ref().Mode},
	}
}

func (p program) trainInputs() map[string]int64 {
	return map[string]int64{"input0": p.spec.Train().Iters, "input1": p.spec.Train().Mode}
}

// newDir makes a fresh, empty cache directory under the run's work
// directory.
func (b *bench) newDir(tag string) (string, error) {
	b.mu.Lock()
	b.dirSeq++
	dir := filepath.Join(b.work, fmt.Sprintf("%s-%d", tag, b.dirSeq))
	b.mu.Unlock()
	return dir, os.MkdirAll(dir, 0o755)
}

// setup runs one set-up step setupRepeats times, recording each
// one's wall and CPU time. Every repeat but the last is released through the cleanup
// the step returns, so the window runs against the last set-up.
func (b *bench) setup(step func() (cleanup func(), err error)) error {
	var prev func()
	for i := 0; i < setupRepeats; i++ {
		if prev != nil {
			prev()
		}
		t0, cpu0 := time.Now(), processCPU()
		cleanup, err := step()
		b.setupNs = append(b.setupNs, time.Since(t0).Nanoseconds())
		b.setupCPUNs = append(b.setupCPUNs, processCPU()-cpu0)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		prev = cleanup
	}
	return nil
}

// Kinds of timed build.
const (
	kindBuild = "build" // inputs changed since the directory's last build
	kindNoop  = "noop"  // rebuild with unchanged inputs
)

// sample is one timed build: open + BuildSource + (remote drain) +
// close, the work of one `cmoc -cache-dir` run.
type sample struct {
	Kind   string `json:"kind"`
	Step   int    `json:"step"`
	Client int    `json:"client"`
	Edit   string `json:"edit,omitempty"`
	Traced bool   `json:"traced"`

	WallNs  int64 `json:"wall_ns"`
	OpenNs  int64 `json:"open_ns"`
	BuildNs int64 `json:"build_ns"`
	DrainNs int64 `json:"drain_ns,omitempty"`
	CloseNs int64 `json:"close_ns"`
	CPUNs   int64 `json:"cpu_ns,omitempty"`
	// Alloc and GC figures are per build for single-client workloads
	// and zero for concurrent ones (see bench.allocTotal).
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	Mallocs    uint64 `json:"mallocs,omitempty"`
	GCCycles   uint32 `json:"gc_cycles,omitempty"`
	GCPauseNs  uint64 `json:"gc_pause_ns,omitempty"`
	RepoBytes  int64  `json:"repo_bytes"`

	FrontendMisses int   `json:"frontend_misses"`
	HLOMisses      int   `json:"hlo_misses"`
	Inlines        int   `json:"inlines"`
	CodeBytes      int64 `json:"code_bytes"`
	Cycles         int64 `json:"cycles,omitempty"`
	// Failure is set by the output checks.
	Failure string `json:"failure,omitempty"`

	// Spans is what the build's own trace says (traced builds only).
	Spans *pipelineSpans `json:"spans,omitempty"`

	stats cmo.BuildStats
	src   [32]byte // hash of the exact sources
	img   [32]byte // hash of the encoded image
	err   error    // the build's own error, if it failed
}

// buildReq describes one timed build.
type buildReq struct {
	kind   string
	dir    string
	mods   []cmo.SourceModule
	opt    cmo.Options
	remote string // CAS base URL; "" for a local-only build
	client int
	step   int
	edit   string
	traced bool
	// alone is set when no other build runs in the process: the build
	// starts from a collected heap, and its allocation, GC and CPU
	// figures are read around it.
	alone bool
}

// timedBuild runs one build the way a developer's tool does — open the
// cache directory, build, drain the remote write-back, close — and
// records it. Only that sequence is timed; hashing the sources and the
// image happens after the clock stops.
func (b *bench) timedBuild(r buildReq) {
	s := &sample{Kind: r.kind, Step: r.step, Client: r.client, Edit: r.edit, Traced: r.traced}
	opt := r.opt
	var tr *obs.Trace
	if r.traced {
		tr = obs.NewTrace()
		opt.Trace = tr
	}
	var m0 runtime.MemStats
	var cpu0 int64
	if r.alone {
		// Start every build from a collected heap, as a fresh cmoc
		// process would, so no build pays for its predecessor's garbage.
		runtime.GC()
		runtime.ReadMemStats(&m0)
		cpu0 = processCPU()
	}

	step := b.spans.StartSpan(r.kind)
	sp := step.Child("session open")
	sess, err := cmo.OpenSession(r.dir)
	s.OpenNs = sp.End()
	var bld *cmo.Build
	if err == nil {
		var rc *cas.Client
		if r.remote != "" {
			rc = cas.NewClient(r.remote, cas.ClientConfig{})
			sess.AttachRemote(rc)
		}
		opt.Session = sess
		sp = step.Child("build")
		bld, err = cmo.BuildSource(r.mods, opt)
		s.BuildNs = sp.End()
		if rc != nil {
			sp = step.Child("cas drain")
			rc.Close()
			s.DrainNs = sp.End()
		}
		if repo := sess.Repo(); repo != nil {
			s.RepoBytes = repo.Size()
		}
		sp = step.Child("session close")
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
		s.CloseNs = sp.End()
	}
	s.WallNs = step.End()

	if r.alone {
		s.CPUNs = processCPU() - cpu0
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		s.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
		s.Mallocs = m1.Mallocs - m0.Mallocs
		s.GCCycles = m1.NumGC - m0.NumGC
		s.GCPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	}
	s.src = b.noteSources(r.mods)
	if err != nil {
		s.err = err
	} else {
		s.stats = bld.Stats
		s.FrontendMisses = bld.Stats.CacheFrontendMisses
		s.HLOMisses = bld.Stats.CacheHLOMisses
		s.Inlines = bld.Stats.HLO.Inlines
		s.CodeBytes = bld.Stats.CodeBytes
		s.img, err = b.noteImage(bld.Image)
		if err != nil {
			s.err = err
		}
		if tr != nil {
			ps := readPipelineSpans(tr)
			s.Spans = &ps
		}
	}
	b.mu.Lock()
	b.samples = append(b.samples, s)
	b.mu.Unlock()
}

// noteSources remembers a source state for the checks and returns its
// hash.
func (b *bench) noteSources(mods []cmo.SourceModule) [32]byte {
	h := sha256.New()
	for _, m := range mods {
		fmt.Fprintf(h, "%d:%s%d:%s", len(m.Name), m.Name, len(m.Text), m.Text)
	}
	var key [32]byte
	copy(key[:], h.Sum(nil))
	b.mu.Lock()
	if _, ok := b.sources[key]; !ok {
		b.sources[key] = mods
	}
	b.mu.Unlock()
	return key
}

// noteImage hashes the image in the format cmoc writes (.vx) and keeps
// the first image of each hash for the VPA check.
func (b *bench) noteImage(img *vpa.Image) ([32]byte, error) {
	key, err := imageHash(img)
	if err != nil {
		return key, err
	}
	b.mu.Lock()
	if _, ok := b.images[key]; !ok {
		b.images[key] = img
	}
	b.mu.Unlock()
	return key, nil
}

func imageHash(img *vpa.Image) ([32]byte, error) {
	var buf bytes.Buffer
	if err := objfile.EncodeImage(&buf, img); err != nil {
		return [32]byte{}, fmt.Errorf("encoding image: %w", err)
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// window calls step with increasing indexes until the measured window
// has run for the configured seconds, and records the window's length.
// An error from step ends the run.
func (b *bench) window(step func(i int) error) error {
	limit := time.Duration(b.cfg.seconds * float64(time.Second))
	t0 := time.Now()
	for i := 0; time.Since(t0) < limit; i++ {
		if err := step(i); err != nil {
			return err
		}
	}
	b.windowNs = time.Since(t0).Nanoseconds()
	return nil
}

// byKind returns the samples of one kind in the order they ran.
func (b *bench) byKind(kind string) []*sample {
	var out []*sample
	for _, s := range b.samples {
		if s.Kind == kind {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Step != out[j].Step {
			return out[i].Step < out[j].Step
		}
		return out[i].Client < out[j].Client
	})
	return out
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
