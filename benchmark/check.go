package main

import (
	"fmt"
	"os"

	cmo "cmo"
	"cmo/internal/il"
	"cmo/internal/lower"
	"cmo/internal/source"
	"cmo/internal/vpa"
)

// The output checks run after the measured window, so none of their
// time is in any metric. Every timed build is checked twice:
//
//   - its image must be byte-identical to a cache-less cold build of
//     the same sources with the same options (caches, the remote and
//     tracing may change speed, never bytes);
//   - its image, run on VPA with the reference inputs, must compute
//     the answer of the IL reference interpreter over freshly lowered
//     sources — the oracle differential_test.go uses.
//
// Both references are memoized: per source state, per semantic state
// (sources minus the benchmark's comment lines) and per image hash, so
// a run computes each at most once.

type checkMemo struct {
	refImage map[[32]byte][32]byte // source hash → reference image hash
	oracle   map[[32]byte]int64    // semantic key → interpreter answer
	vpa      map[[32]byte]vpaRun   // image hash → VPA outcome
}

type vpaRun struct {
	value  int64
	cycles int64
}

// check runs both checks on every timed build and reports each
// failure on standard error.
func (b *bench) check() {
	b.refs = checkMemo{
		refImage: map[[32]byte][32]byte{},
		oracle:   map[[32]byte]int64{},
		vpa:      map[[32]byte]vpaRun{},
	}
	for _, s := range b.samples {
		if msg := b.checkSample(s); msg != "" {
			s.Failure = msg
			fmt.Fprintf(os.Stderr, "benchmark: FAILED %s step %d client %d (%s): %s\n", s.Kind, s.Step, s.Client, s.Edit, msg)
		}
	}
}

func (b *bench) checkSample(s *sample) string {
	if s.err != nil {
		return "build: " + s.err.Error()
	}
	if s.stats.PinLeaks != 0 {
		return fmt.Sprintf("%d NAIM pin leaks", s.stats.PinLeaks)
	}
	ref, err := b.referenceImage(s.src)
	if err != nil {
		return "reference build: " + err.Error()
	}
	if ref != s.img {
		return "image differs from a cache-less cold build of the same sources"
	}
	want, err := b.oracleAnswer(s.src)
	if err != nil {
		return "reference interpreter: " + err.Error()
	}
	got, err := b.runImage(s.img)
	if err != nil {
		return "vpa: " + err.Error()
	}
	s.Cycles = got.cycles
	if got.value != want {
		return fmt.Sprintf("vpa computed %d, the reference interpreter %d", got.value, want)
	}
	return ""
}

// referenceImage builds the sources cold, with no session, cache or
// trace, and returns the image hash.
func (b *bench) referenceImage(src [32]byte) ([32]byte, error) {
	if h, ok := b.refs.refImage[src]; ok {
		return h, nil
	}
	opt := b.prog.opt
	opt.Session, opt.CacheDir, opt.Trace = nil, "", nil
	bld, err := cmo.BuildSource(b.sources[src], opt)
	if err != nil {
		return [32]byte{}, err
	}
	h, err := imageHash(bld.Image)
	if err != nil {
		return h, err
	}
	b.refs.refImage[src] = h
	return h, nil
}

// oracleAnswer interprets freshly lowered sources on the reference
// inputs.
func (b *bench) oracleAnswer(src [32]byte) (int64, error) {
	mods := b.sources[src]
	key := semanticKey(mods)
	if v, ok := b.refs.oracle[key]; ok {
		return v, nil
	}
	var files []*source.File
	for _, m := range mods {
		f, err := source.Parse(m.Name, m.Text)
		if err != nil {
			return 0, err
		}
		if err := source.Check(f); err != nil {
			return 0, err
		}
		files = append(files, f)
	}
	res, err := lower.Modules(files)
	if err != nil {
		return 0, err
	}
	it := il.NewInterp(res.Prog, func(p il.PID) *il.Function { return res.Funcs[p] })
	for _, name := range sortedKeys(b.prog.ref) {
		if err := it.SetGlobal(name, b.prog.ref[name]); err != nil {
			return 0, err
		}
	}
	v, err := it.Run("main", nil, 2e10)
	if err != nil {
		return 0, err
	}
	b.refs.oracle[key] = v
	return v, nil
}

// runImage executes an image on VPA with the reference inputs.
func (b *bench) runImage(img [32]byte) (vpaRun, error) {
	if r, ok := b.refs.vpa[img]; ok {
		return r, nil
	}
	m := vpa.NewMachine(b.images[img], vpa.DefaultConfig())
	for _, name := range sortedKeys(b.prog.ref) {
		if err := m.SetGlobal(name, b.prog.ref[name]); err != nil {
			return vpaRun{}, err
		}
	}
	v, err := m.Run(nil, 0)
	if err != nil {
		return vpaRun{}, err
	}
	r := vpaRun{value: v, cycles: m.Stats.Cycles}
	b.refs.vpa[img] = r
	return r, nil
}
