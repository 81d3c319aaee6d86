package cmo

import (
	"bytes"
	"encoding/hex"
	"sort"

	"cmo/internal/depgraph"
	"cmo/internal/il"
	"cmo/internal/naim"
	"cmo/internal/objfile"
	"cmo/internal/vpa"
)

// The session's dependency-graph hookup: one graphPlan per
// graph-scheduled build. On warm open the plan hashes only the leaf
// inputs (module source texts — the hashes the frontend cache needed
// anyway), compares them against the persisted graph's source nodes,
// and propagates dirtiness through the closure. A clean closure takes
// the image-replay fast path: the whole build is one repository read.
// A dirty closure runs the normal pipeline, which records fresh nodes
// and costs into the plan's delta; a successful build appends the
// delta to the graph log.
//
// Everything here is advisory. Artifact reuse is decided by
// content-addressed keys exactly as on the NoDepGraph path, so a
// stale or missing graph can cost time, never correctness — the
// differential tests in graph_test.go hold the two paths to
// byte-identical images across the option matrix.

// Node ID scheme. One namespace per stage, keyed by the names the
// program already guarantees unique (module names, function names).
func graphSrcID(mod string) string { return "src/" + mod }
func graphFeID(mod string) string  { return "fe/" + mod }
func graphFnID(fn string) string   { return "fn/" + fn }
func graphObjID(fn string) string  { return "llo/" + fn }

const graphImageID = "image"

// graphPlan carries one build's view of the session graph.
type graphPlan struct {
	log   *depgraph.Log
	delta *depgraph.Delta
	optFP string

	// leafKeys[i] is module i's frontend artifact key — the leaf
	// fingerprint. dirty is the forward closure of the leaves whose
	// fingerprint moved (plus leaves the graph has never seen).
	leafKeys []naim.Key
	dirty    map[string]bool

	imageKey naim.Key
}

// planGraph builds the plan for one BuildSource call, or returns nil
// when the build is not graph-scheduled (no session graph, ablation
// knob, instrumented build). opt must already have its defaults
// normalized: the options fingerprint and the image key depend on
// Level and Entry.
func planGraph(sess *Session, mods []SourceModule, opt Options) *graphPlan {
	if sess == nil || sess.graph == nil || opt.NoDepGraph || opt.Instrument {
		return nil
	}
	gp := &graphPlan{
		log:      sess.graph,
		delta:    &depgraph.Delta{},
		optFP:    hloOptionsFingerprint(opt),
		leafKeys: make([]naim.Key, len(mods)),
	}
	g := gp.log.Graph()
	var dirtyIDs []string
	for i, m := range mods {
		gp.leafKeys[i] = frontendKey(m.Name, m.Text)
		id := graphSrcID(m.Name)
		if n, ok := g.Lookup(id); !ok || n.FP != depgraph.FP(gp.leafKeys[i]) {
			dirtyIDs = append(dirtyIDs, id)
		}
	}
	gp.dirty = g.Closure(dirtyIDs)
	for _, id := range dirtyIDs {
		// A leaf the graph has never seen has no recorded dependents,
		// but it is still dirty work this build must do.
		gp.dirty[id] = true
	}
	gp.imageKey = gp.computeImageKey(mods, opt)
	return gp
}

// computeImageKey derives the whole-build image key: options
// fingerprint plus every module's leaf fingerprint, in module order.
// Any edit, any option change, any module added/removed/renamed moves
// the key.
func (gp *graphPlan) computeImageKey(mods []SourceModule, opt Options) naim.Key {
	parts := make([]string, 0, 3+2*len(mods))
	parts = append(parts, "cmo/image/v1", toolchainVersion, gp.optFP)
	for i, m := range mods {
		parts = append(parts, m.Name, hex.EncodeToString(gp.leafKeys[i][:]))
	}
	return naim.KeyOfStrings(parts...)
}

// The stored image record: build metadata the replayed Build's stats
// need, then the exact image in the objfile executable encoding
// (which Finalizes and Validates on decode).
const imageRecordMagic = "CMOIMG1\n"

func encodeImageRecord(img *vpa.Image, functions, totalLines int) []byte {
	var buf bytes.Buffer
	w := &artWriter{b: make([]byte, 0, 16+len(imageRecordMagic))}
	w.b = append(w.b, imageRecordMagic...)
	w.u(uint64(functions))
	w.u(uint64(totalLines))
	buf.Write(w.b)
	if err := objfile.EncodeImage(&buf, img); err != nil {
		return nil
	}
	return buf.Bytes()
}

func decodeImageRecord(blob []byte) (img *vpa.Image, functions, totalLines int, err error) {
	if len(blob) < len(imageRecordMagic) || string(blob[:len(imageRecordMagic)]) != imageRecordMagic {
		return nil, 0, 0, errArtifact
	}
	r := &artReader{b: blob, off: len(imageRecordMagic)}
	functions = int(r.u())
	totalLines = int(r.u())
	if r.err != nil {
		return nil, 0, 0, r.err
	}
	img, err = objfile.DecodeImage(bytes.NewReader(blob[r.off:]))
	if err != nil {
		return nil, 0, 0, err
	}
	return img, functions, totalLines, nil
}

// tryReplayImage is the warm-noop fast path: every leaf fingerprint
// matched the graph, so if the graph's image node carries this exact
// image key and the repository still holds the blob, the build is one
// read + decode — zero stage work, O(leaves) hashing. Any doubt
// (dirty closure, missing node, key moved, blob gone or undecodable)
// returns nil and the full pipeline runs.
func (gp *graphPlan) tryReplayImage(sess *Session, mods []SourceModule, opt Options) *Build {
	if len(gp.dirty) != 0 {
		return nil
	}
	n, ok := gp.log.Graph().Lookup(graphImageID)
	if !ok || n.FP != depgraph.FP(gp.imageKey) {
		return nil
	}
	blob, ok := sess.get(gp.imageKey)
	if !ok {
		return nil
	}
	img, functions, totalLines, err := decodeImageRecord(blob)
	if err != nil {
		return nil
	}
	b := &Build{Image: img, trace: opt.Trace}
	b.Stats.Level = opt.Level
	b.Stats.PBO = opt.PBO
	b.Stats.Modules = len(mods)
	b.Stats.Functions = functions
	b.Stats.TotalLines = totalLines
	b.Stats.CodeBytes = img.CodeBytes()
	b.Stats.GraphImageReplay = true
	gp.fillStats(&b.Stats)
	if opt.Trace != nil {
		opt.Trace.Counter("graph.image_replays").Add(1)
	}
	return b
}

// noteModule records one module's frontend outcome. Misses carry the
// measured parse/lower cost; hits only repair the graph (a node the
// log lost — e.g. a discarded generation — is re-recorded with its
// identity and zero cost, so topology survives even when timing
// does not).
func (gp *graphPlan) noteModule(mod string, key naim.Key, cost int64, miss bool) {
	srcID, feID := graphSrcID(mod), graphFeID(mod)
	fp := depgraph.FP(key)
	if !miss {
		if n, ok := gp.log.Graph().Lookup(feID); ok && n.FP == fp {
			return
		}
		cost = 0
	}
	gp.delta.Put(srcID, depgraph.KindSource, fp, 0)
	gp.delta.Put(feID, depgraph.KindFrontend, fp, cost, srcID)
}

// noteFuncs records the function-level call topology: one KindFunc
// node per routine, depending on its defining module's frontend
// artifact and on every function it directly calls. The scan runs
// over the pre-HLO bodies — inlining consumes call sites, and a
// consumed site is exactly a dependency the object keeps (the callee's
// body is baked in), so the pre-optimization edges are the sound
// over-approximation. Function fingerprints stay zero: dirtiness
// enters only at source leaves, and the closure needs topology, not
// per-function hashes.
func (gp *graphPlan) noteFuncs(prog *il.Program, fns map[il.PID]*il.Function) {
	g := gp.log.Graph()
	for _, pid := range prog.FuncPIDs() {
		f := fns[pid]
		if f == nil {
			continue
		}
		sym := prog.Sym(pid)
		deps := make([]string, 0, 4)
		if int(sym.Module) >= 0 && int(sym.Module) < len(prog.Modules) {
			deps = append(deps, graphFeID(prog.Modules[sym.Module].Name))
		}
		seen := map[il.PID]bool{}
		var callees []string
		for _, blk := range f.Blocks {
			for i := range blk.Instrs {
				in := &blk.Instrs[i]
				if in.Op != il.Call || seen[in.Sym] {
					continue
				}
				seen[in.Sym] = true
				callees = append(callees, graphFnID(prog.Sym(in.Sym).Name))
			}
		}
		sort.Strings(callees)
		deps = append(deps, callees...)
		id := graphFnID(sym.Name)
		if n, ok := g.Lookup(id); ok && equalDeps(n.Deps, deps) {
			continue
		}
		gp.delta.Put(id, depgraph.KindFunc, depgraph.FP{}, 0, deps...)
	}
}

func equalDeps(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// noteObject records one routine's LLO object: fingerprinted by the
// key of the partition bundle that stores it, costed by the measured
// compile time on a miss. Hits
// keep the previously recorded cost — the graph schedules by what a
// recompile would cost, not by how fast the cache answered.
func (gp *graphPlan) noteObject(fn string, key naim.Key, cost int64, miss bool) {
	id := graphObjID(fn)
	fp := depgraph.FP(key)
	if !miss {
		if n, ok := gp.log.Graph().Lookup(id); ok && n.FP == fp {
			return
		}
		cost = 0
	}
	gp.delta.Put(id, depgraph.KindObject, fp, cost, graphFnID(fn))
}

// noteImage records the sink: the image node depends on every linked
// object, carries the whole-build image key, and the stored blob
// makes the next clean warm open a single read.
func (gp *graphPlan) noteImage(sess *Session, img *vpa.Image, stats *BuildStats, linkNanos int64) {
	deps := make([]string, 0, len(img.Funcs))
	for _, f := range img.Funcs {
		deps = append(deps, graphObjID(f.Name))
	}
	sort.Strings(deps)
	gp.delta.Put(graphImageID, depgraph.KindImage, depgraph.FP(gp.imageKey), linkNanos, deps...)
	if blob := encodeImageRecord(img, stats.Functions, stats.TotalLines); blob != nil {
		sess.put(gp.imageKey, blob)
	}
}

// priorities returns the longest-path-to-sink schedule weights over
// the graph as loaded (this build's delta lands afterwards — the
// schedule uses last build's costs, which is the point: they predict
// this one's).
func (gp *graphPlan) priorities() map[string]int64 {
	return gp.log.Graph().Priorities()
}

// commit appends the build's delta to the graph log (durability
// arrives with the session commit, like every other artifact write)
// and fills the graph stats. Failed appends are advisory like every
// cache write.
func (gp *graphPlan) commit(stats *BuildStats, opt Options) {
	_ = gp.log.Append(gp.delta)
	gp.fillStats(stats)
	if opt.Trace != nil {
		opt.Trace.Counter("graph.dirty_closure").Add(int64(stats.GraphDirtyClosure))
	}
}

func (gp *graphPlan) fillStats(stats *BuildStats) {
	g := gp.log.Graph()
	stats.GraphNodes = g.Len()
	stats.GraphEdges = g.Edges()
	stats.GraphDirtyClosure = len(gp.dirty)
	stats.GraphCriticalPathNanos = g.CriticalPath()
}
