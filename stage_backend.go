package cmo

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"cmo/internal/backend"
	"cmo/internal/il"
	"cmo/internal/lower"
	"cmo/internal/naim"
	"cmo/internal/obs"
	"cmo/internal/partition"
	"cmo/internal/vpa"
)

// The partitioned backend: the pipeline's WHOPR split. HLO is the
// summary-driven whole-program phase; everything after it is
// embarrassingly parallel per routine, so the stage (1) extracts every
// surviving routine's portable post-HLO body (releasing its pin
// immediately — workers operate on pure data, so no checkout is ever
// held across a dispatch, let alone across a network call), (2) groups
// routines into balanced callgraph-aware partitions
// (internal/partition) with a deterministic fingerprint each, (3)
// replays every partition whose bundle — one repository record holding
// all of its members' objects, keyed by the fingerprint — is stored,
// so warm builds only schedule dirty partitions, and (4) dispatches the
// dirty ones, critical-path first, across the worker set: an
// in-process pool (Options.Workers) plus one puller per remote cmod
// daemon (Options.RemoteWorkers). A remote failure of any kind
// retries the partition on the local engine, so a flaky worker costs
// time, never the build.
//
// Byte identity is the load-bearing invariant and it holds by
// construction: every object — cached, local, or remote — travels
// through the same name-symbolic encoding and is decoded fresh
// against this build's program, and both partitioning and fingerprints
// are pure functions of program content (never of Jobs, worker count,
// or measured times). Measured costs only order the dispatch queue.

// PartitionInfo describes one backend partition of a completed build:
// its deterministic fingerprint, its membership in canonical order,
// and how it was satisfied.
type PartitionInfo struct {
	Index int
	// FP is the deterministic partition fingerprint: toolchain ⊕
	// options fingerprint ⊕ partition count/index ⊕ every member's
	// name, tier, and post-HLO body hash.
	FP string
	// Funcs is the membership in canonical (module-major) order.
	Funcs []string
	// Clean marks a partition fully replayed from the repository.
	Clean bool
	// Worker names what executed a dirty partition: "local", a remote
	// address, or "local (fallback)" after a remote failure.
	Worker string
}

// backendUnit is one partition's dispatch state.
type backendUnit struct {
	idx   int
	fp    string
	items []partition.Item // canonical membership
	funcs []backend.Func   // full membership, canonical order
	key   naim.Key         // the partition bundle's repository key
	pids  []il.PID

	// blobs[i] holds member i's object encoding: filled from the
	// bundle during the probe, or by a worker during dispatch.
	blobs [][]byte
	// dirty lists the members to dispatch (indexes into funcs).
	dirty []int

	priority int64
}

// runLLO is the LLO stage (see the file comment): it compiles every
// function not in omit and returns the code map.
func (b *Build) runLLO(loader *naim.Loader, opt Options, sess *Session, omit map[il.PID]bool, lsp obs.Span) (map[il.PID]*vpa.Func, error) {
	prog := b.Prog
	gp := b.gp
	multiLayer := opt.MultiLayer && opt.Level >= O4 && opt.DB != nil
	optFP := hloOptionsFingerprint(opt)

	// Phase 1: extract. One sequential pass in PID order — tier
	// classification mutates stats and must stay deterministic — that
	// pins each body just long enough to encode its portable form and
	// collect its call edges, then releases it. After this loop the
	// stage holds no checkouts: workers, local or remote, see only
	// portable bytes.
	type member struct {
		pid   il.PID
		name  string
		level int
		pbo   bool
		body  []byte
		size  int
	}
	pids := make([]il.PID, 0, len(prog.FuncPIDs()))
	for _, pid := range prog.FuncPIDs() {
		if !omit[pid] {
			pids = append(pids, pid)
		}
	}
	members := make(map[string]*member, len(pids))
	items := make([]partition.Item, 0, len(pids))
	type edgeKey struct{ a, b string }
	edgeW := make(map[edgeKey]int64)
	for _, pid := range pids {
		if err := opt.ctxErr(); err != nil {
			return nil, err
		}
		f := loader.Function(pid)
		if f == nil {
			return nil, fmt.Errorf("cmo: no body for %s", prog.Sym(pid).Name)
		}
		sym := prog.Sym(pid)
		level, pbo := b.lloTier(opt, multiLayer, pid, f)
		body := naim.EncodePortableFunc(prog, f)
		m := &member{
			pid:   pid,
			name:  sym.Name,
			level: level,
			pbo:   pbo,
			body:  body,
			size:  f.NumInstrs(),
		}
		for _, blk := range f.Blocks {
			for i := range blk.Instrs {
				in := &blk.Instrs[i]
				if in.Op != il.Call {
					continue
				}
				edgeW[edgeKey{sym.Name, prog.Sym(in.Sym).Name}]++
			}
		}
		loader.DoneWith(pid)
		members[m.name] = m
		items = append(items, partition.Item{ID: m.name, Module: int(sym.Module), Size: int64(m.size)})
	}
	if gp != nil {
		b.Stats.GraphFrontierDepth = len(pids)
	}
	code := make(map[il.PID]*vpa.Func, len(pids))
	if len(pids) == 0 {
		return code, nil
	}

	// Phase 2: partition. Edge aggregation is map-ordered, but
	// partition.Balanced sums edge weights order-insensitively, so the
	// assignment stays deterministic.
	edges := make([]partition.Edge, 0, len(edgeW))
	for k, w := range edgeW {
		edges = append(edges, partition.Edge{A: k.a, B: k.b, Weight: w})
	}
	npart := opt.Partitions
	if npart <= 0 {
		npart = partition.Auto(len(items))
	}
	parts := partition.Balanced(items, edges, npart)
	total := len(parts)
	scope := fmt.Sprintf("cmo/backend/v1|%s|%s|n=%d", toolchainVersion, optFP, total)

	units := make([]*backendUnit, total)
	b.Partitions = make([]PartitionInfo, total)
	for i, p := range parts {
		u := &backendUnit{idx: p.Index, items: p.Items}
		names := make([]string, 0, len(p.Items))
		for _, it := range p.Items {
			m := members[it.ID]
			u.funcs = append(u.funcs, backend.Func{Name: m.name, Level: m.level, PBO: m.pbo, Body: m.body})
			u.pids = append(u.pids, m.pid)
			names = append(names, m.name)
		}
		u.fp = backend.Fingerprint(scope, p.Index, total, u.funcs)
		u.key = partitionBundleKey(u.fp)
		u.blobs = make([][]byte, len(u.funcs))
		units[i] = u
		b.Partitions[i] = PartitionInfo{Index: p.Index, FP: u.fp, Funcs: names}
	}
	b.Stats.Partitions = total

	// Phase 3: probe and replay. Only graph-scheduled session builds
	// cache objects, and the partition is the unit of caching: one
	// bundle per partition, keyed by the partition fingerprint, so a
	// clean partition replays in a single repository read and any
	// member's edit moves the key of its whole partition. A bundle
	// member that fails to decode, or decodes to the wrong routine,
	// demotes that member to dirty — reuse stays advisory, never
	// load-bearing.
	var dirtyUnits []*backendUnit
	for _, u := range units {
		if err := opt.ctxErr(); err != nil {
			return nil, err
		}
		var objs []backend.Object
		if gp != nil {
			if blob, ok := sess.get(u.key); ok {
				if res, err := backend.DecodeResult(blob); err == nil && len(res.Objects) == len(u.funcs) {
					objs = res.Objects
				}
			}
		}
		for i := range u.funcs {
			if objs != nil {
				if dec, err := backend.DecodeObject(prog, objs[i].Blob); err == nil && dec.Name == u.funcs[i].Name {
					sp := lsp.ChildDetail("llo warm", u.funcs[i].Name)
					code[u.pids[i]] = dec
					sp.End()
					u.blobs[i] = objs[i].Blob
					gp.noteObject(u.funcs[i].Name, u.key, 0, false)
					b.Stats.CacheLLOHits++
					continue
				}
			}
			u.dirty = append(u.dirty, i)
		}
		if len(u.dirty) == 0 {
			b.Stats.PartitionsClean++
			b.Partitions[u.idx].Clean = true
		} else {
			dirtyUnits = append(dirtyUnits, u)
		}
	}

	// Phase 4: dispatch the dirty partitions, heaviest dependency
	// chains first. Priorities come from the depgraph's measured costs
	// — scheduling only; membership and fingerprints never see them.
	if len(dirtyUnits) > 0 {
		var prio map[string]int64
		if gp != nil {
			prio = gp.priorities()
		}
		for _, u := range dirtyUnits {
			for _, it := range u.items {
				w := it.Size
				if prio != nil {
					if p, ok := prio[graphObjID(it.ID)]; ok && p > w {
						w = p
					}
				}
				if w > u.priority {
					u.priority = w
				}
			}
		}
		sort.SliceStable(dirtyUnits, func(i, j int) bool {
			if dirtyUnits[i].priority != dirtyUnits[j].priority {
				return dirtyUnits[i].priority > dirtyUnits[j].priority
			}
			return dirtyUnits[i].idx < dirtyUnits[j].idx
		})
		if err := b.dispatchPartitions(dirtyUnits, total, opt, lsp); err != nil {
			return nil, err
		}
		// Harvest: decode freshly compiled objects into the code map.
		// Decoding happens here, on the dispatcher, for local and
		// remote results alike — both arrive as the same encoding and
		// become fresh Funcs against this build's program, which is
		// what makes local-vs-remote byte-invisible to the linker.
		for _, u := range dirtyUnits {
			for _, di := range u.dirty {
				dec, err := backend.DecodeObject(prog, u.blobs[di])
				if err != nil {
					return nil, fmt.Errorf("cmo: decoding compiled object %s: %w", u.funcs[di].Name, err)
				}
				code[u.pids[di]] = dec
				if lb := lloBytes(int(u.items[di].Size)); lb > b.Stats.LLOPeakBytes {
					b.Stats.LLOPeakBytes = lb
				}
			}
			if gp == nil {
				continue
			}
			// Rewrite the bundle with every member, replayed and
			// fresh, in canonical order: the next warm build replays
			// the partition from one read.
			bundle := backend.Result{FP: u.fp, Objects: make([]backend.Object, len(u.funcs))}
			for i := range u.funcs {
				bundle.Objects[i] = backend.Object{Name: u.funcs[i].Name, Blob: u.blobs[i]}
			}
			sess.put(u.key, backend.EncodeResult(&bundle))
		}
	}

	if tr := lsp.Trace(); tr != nil {
		tr.Counter("backend.partitions").Add(int64(b.Stats.Partitions))
		tr.Counter("backend.partitions_clean").Add(int64(b.Stats.PartitionsClean))
		tr.Counter("backend.partitions_local").Add(int64(b.Stats.PartitionsLocal))
		tr.Counter("backend.partitions_remote").Add(int64(b.Stats.PartitionsRemote))
		tr.Counter("backend.partition_retries").Add(int64(b.Stats.PartitionRetries))
		if b.Stats.CacheLLOHits+b.Stats.CacheLLOMisses > 0 {
			tr.Counter("session.llo_hits").Add(int64(b.Stats.CacheLLOHits))
			tr.Counter("session.llo_misses").Add(int64(b.Stats.CacheLLOMisses))
		}
	}
	return code, nil
}

// dispatchPartitions drains the priority-ordered dirty queue across
// the worker set: Options.Workers local engine goroutines plus one
// puller per remote daemon. Only each unit's dirty members are sent —
// replayed members already hold their blobs. Completed objects land in
// the unit's blob slots (the harvest pass decodes them and the bundle
// write stores them); graph costs and partition counters are recorded
// under one mutex.
func (b *Build) dispatchPartitions(queue []*backendUnit, total int, opt Options, lsp obs.Span) error {
	prog := b.Prog
	gp := b.gp
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}

	localWorkers := opt.Workers
	if localWorkers <= 0 {
		localWorkers = opt.Jobs
	}
	if localWorkers < 1 {
		localWorkers = 1
	}
	if localWorkers > len(queue) {
		localWorkers = len(queue)
	}

	// Remote workers need the module shapes to rebuild a symbol table;
	// compute them once, outside the pullers.
	var shapes []lower.Shape
	if len(opt.RemoteWorkers) > 0 {
		shapes = lower.ShapesOf(prog)
	}

	var (
		mu       sync.Mutex
		firstErr error
		stop     atomic.Bool
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stop.Store(true)
	}
	engine := &backend.Engine{Prog: prog, Verify: b.lloVerifyHook(opt), Span: lsp}

	// finish records one executed partition's objects and telemetry.
	finish := func(u *backendUnit, res *backend.Result, worker string, remote bool, retried bool) {
		mu.Lock()
		defer mu.Unlock()
		for i, di := range u.dirty {
			obj := res.Objects[i]
			u.blobs[di] = obj.Blob
			if gp != nil {
				gp.noteObject(u.funcs[di].Name, u.key, obj.Nanos, true)
				b.Stats.CacheLLOMisses++
			}
		}
		if remote {
			b.Stats.PartitionsRemote++
		} else {
			b.Stats.PartitionsLocal++
		}
		if retried {
			b.Stats.PartitionRetries++
		}
		w := worker
		if retried {
			w = "local (fallback)"
		}
		b.Partitions[u.idx].Worker = w
	}

	// runOn executes one unit on a worker, with the local engine as
	// the fallback when a remote attempt fails for any reason.
	runOn := func(u *backendUnit, w backend.Worker, remote bool) error {
		funcs := make([]backend.Func, len(u.dirty))
		for i, di := range u.dirty {
			funcs[i] = u.funcs[di]
		}
		req := &backend.Request{
			Toolchain: toolchainVersion,
			Shapes:    shapes,
			Part:      backend.Partition{Index: u.idx, Total: total, FP: u.fp, Funcs: funcs},
		}
		sp := lsp.ChildDetail("partition", fmt.Sprintf("p%d/%d via %s (%d fns)", u.idx, total, w.Name(), len(funcs)))
		res, err := w.Compile(ctx, req)
		sp.End()
		retried := false
		if err != nil && remote {
			// The retry/fallback contract: a dead, slow, or lying
			// remote worker demotes the partition to local execution.
			// Only a local failure (a real compile error, or the
			// build's own cancellation) fails the build.
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			lsp.Event("partition retry")
			retried = true
			fsp := lsp.ChildDetail("partition", fmt.Sprintf("p%d/%d via local fallback (%d fns)", u.idx, total, len(funcs)))
			res, err = engine.Compile(ctx, &req.Part)
			fsp.End()
		}
		if err != nil {
			return err
		}
		finish(u, res, w.Name(), remote && !retried, retried)
		return nil
	}

	pull := func(w backend.Worker, remote bool) {
		defer wg.Done()
		for {
			if stop.Load() {
				return
			}
			if err := ctx.Err(); err != nil {
				fail(err)
				return
			}
			i := int(next.Add(1)) - 1
			if i >= len(queue) {
				return
			}
			if err := runOn(queue[i], w, remote); err != nil {
				fail(err)
				return
			}
		}
	}

	for w := 0; w < localWorkers; w++ {
		wg.Add(1)
		go pull(&backend.Local{Engine: engine}, false)
	}
	if len(opt.RemoteWorkers) > 0 {
		client := &http.Client{}
		timeout := opt.RemoteTimeout
		if timeout <= 0 {
			timeout = backend.DefaultTimeout
		}
		for _, addr := range opt.RemoteWorkers {
			wg.Add(1)
			go pull(&backend.Remote{Addr: addr, Client: client, Timeout: timeout}, true)
		}
	}
	wg.Wait()
	return firstErr
}
