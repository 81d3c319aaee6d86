package main

import (
	"fmt"
	"math"
	"sort"
)

// Timings are reported as a median and a tail: the highest of the
// listed percentiles that still has at least tailBeyond samples above
// it. With fewer than 2*tailBeyond samples no percentile above the
// median qualifies, and the tail is reported at the median.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

const tailBeyond = 10

// percentile is the nearest-rank percentile of xs (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := max(int(math.Ceil(p/100*float64(len(s)))), 1)
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailOf returns the tail percentile of xs and its value.
func tailOf(xs []float64) (p, v float64) {
	n := float64(len(xs))
	for _, p := range tailPercentiles {
		if n-math.Ceil(p/100*n) >= tailBeyond {
			return p, percentile(xs, p)
		}
	}
	return 50, median(xs)
}

// ok returns the timed builds of one kind that completed.
func (b *bench) ok(kind string) []*sample {
	var out []*sample
	for _, s := range b.byKind(kind) {
		if s.err == nil {
			out = append(out, s)
		}
	}
	return out
}

func traced(ss []*sample) []*sample   { return filter(ss, true) }
func untraced(ss []*sample) []*sample { return filter(ss, false) }

func filter(ss []*sample, traced bool) []*sample {
	var out []*sample
	for _, s := range ss {
		if s.Traced == traced {
			out = append(out, s)
		}
	}
	return out
}

func values(ss []*sample, f func(*sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

func med(ss []*sample, f func(*sample) float64) float64 { return median(values(ss, f)) }

func mean(ss []*sample, f func(*sample) float64) float64 {
	if len(ss) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range ss {
		sum += f(s)
	}
	return sum / float64(len(ss))
}

// ratio sums num and den over the samples; 0 when den is.
func ratio(ss []*sample, num, den func(*sample) float64) float64 {
	var n, d float64
	for _, s := range ss {
		n += num(s)
		d += den(s)
	}
	if d == 0 {
		return 0
	}
	return n / d
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func mb(n int64) float64  { return float64(n) / 1e6 }

func nsToMs(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = ms(x)
	}
	return out
}

// endToEndMetrics are what a user of the toolchain sees. The
// compiler's own cost is gated on what it allocates, a count of its
// own operations, not on build time: on the shared hosts the record is
// made on, the CPU time of the same build moves by more from run to
// run than any bound allows (README.md). Build times are per-layer
// metrics of the traced run.
func (b *bench) endToEndMetrics(m map[string]metric, attempted, failed int) {
	builds, noops := b.ok(kindBuild), b.ok(kindNoop)
	setup := make([]float64, len(b.setupCPUNs))
	for i, ns := range b.setupCPUNs {
		setup[i] = float64(ns) / 1e9
	}
	m["setup_s"] = metric{median(setup), "s"}
	peak := int64(0)
	for _, s := range append(builds, noops...) {
		peak = max(peak, s.stats.CompilerPeakBytes)
	}
	m["model_peak_mb"] = metric{mb(peak), "MB"}
	m["alloc_mb_per_build"] = metric{allocPerBuild(builds, b.allocTotal, func(s *sample) uint64 { return s.AllocBytes }) / 1e6, "MB"}
	m["allocs_k_per_build"] = metric{allocPerBuild(builds, b.mallocTotal, func(s *sample) uint64 { return s.Mallocs }) / 1e3, "k"}
	m["sim_mcycles"] = metric{med(builds, func(s *sample) float64 { return float64(s.Cycles) / 1e6 }), "Mcycles"}
	m["code_kb"] = metric{med(builds, func(s *sample) float64 { return float64(s.stats.CodeBytes) / 1024 }), "KB"}
	okRatio := 0.0
	if attempted > 0 {
		okRatio = float64(attempted-failed) / float64(attempted)
	}
	m["ok_ratio"] = metric{okRatio, "ratio"}
}

// cpuPerBuild is the mean process CPU time of an untraced build with
// changed inputs. Concurrent builds cannot be told apart, so for
// shared-cache it is the window's CPU time, the daemon's share and the
// traced builds included, over the builds.
func (b *bench) cpuPerBuild(builds []*sample) float64 {
	if b.windowCPUNs > 0 {
		return ms(b.windowCPUNs) / float64(max(len(builds), 1))
	}
	return mean(untraced(builds), func(s *sample) float64 { return ms(s.CPUNs) })
}

// allocPerBuild is the median of a per-build allocation count for
// single-client workloads; concurrent builds overlap, so there it is
// the window's total over the builds with changed inputs.
func allocPerBuild(builds []*sample, windowTotal uint64, f func(*sample) uint64) float64 {
	if windowTotal > 0 {
		return float64(windowTotal) / float64(max(len(builds), 1))
	}
	return med(builds, func(s *sample) float64 { return float64(f(s)) })
}

// layerMetrics are the per-layer figures of a traced run: medians per
// build with changed inputs, except ratios (summed over those builds),
// miss and dirty counts (means: in edit-loop half the edits miss
// nothing), failure counts (totals) and the noop.* figures (per no-op
// rebuild).
func (b *bench) layerMetrics(m map[string]metric) {
	builds, noops := b.ok(kindBuild), b.ok(kindNoop)
	tb, tn := traced(builds), traced(noops)
	st := func(f func(s *sample) float64) float64 { return med(builds, f) }
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	// wall time, from the untraced half of the builds
	wall := func(s *sample) float64 { return ms(s.WallNs) }
	ub, un := untraced(builds), untraced(noops)
	put("build_ms_p50", "ms", med(ub, wall))
	_, bt := tailOf(values(ub, wall))
	put("build_ms_tail", "ms", bt)
	put("noop_ms_p50", "ms", med(un, wall))
	_, nt := tailOf(values(un, wall))
	put("noop_ms_tail", "ms", nt)
	put("builds_per_s", "1/s", float64(len(builds))/(float64(b.windowNs)/1e9))
	put("cpu_ms_per_build", "ms", b.cpuPerBuild(builds))
	put("noop_cpu_ms_p50", "ms", med(un, func(s *sample) float64 { return ms(s.CPUNs) }))

	// frontend
	put("frontend.ms", "ms", st(func(s *sample) float64 { return ms(s.stats.FrontendNanos) }))
	put("frontend.hit_ratio", "ratio", ratio(builds,
		func(s *sample) float64 { return float64(s.stats.CacheFrontendHits) },
		func(s *sample) float64 { return float64(s.stats.CacheFrontendHits + s.stats.CacheFrontendMisses) }))
	put("frontend.misses", "count", mean(builds, func(s *sample) float64 { return float64(s.stats.CacheFrontendMisses) }))

	// select and ipa
	put("select.ms", "ms", st(func(s *sample) float64 { return ms(s.stats.SelectNanos) }))
	put("select.cmo_fn_pct", "%", st(func(s *sample) float64 {
		if s.stats.Functions == 0 {
			return 0
		}
		return 100 * float64(s.stats.CMOFunctions) / float64(s.stats.Functions)
	}))
	put("ipa.ms", "ms", st(func(s *sample) float64 { return ms(s.stats.IPANanos) }))

	// hlo
	put("hlo.ms", "ms", st(func(s *sample) float64 { return ms(s.stats.HLONanos) }))
	for _, t := range hloTransforms {
		put("hlo."+t+".self_ms", "ms", med(tb, func(s *sample) float64 { return ms(s.Spans.SelfNs[t]) }))
	}
	put("hlo.replay_hit_ratio", "ratio", ratio(builds,
		func(s *sample) float64 { return float64(s.stats.CacheHLOHits) },
		func(s *sample) float64 { return float64(s.stats.CacheHLOHits + s.stats.CacheHLOMisses) }))
	put("hlo.replay_misses", "count", mean(builds, func(s *sample) float64 { return float64(s.stats.CacheHLOMisses) }))
	put("hlo.inlines", "count", st(func(s *sample) float64 { return float64(s.stats.HLO.Inlines) }))

	// naim loader
	put("naim.peak_mb", "MB", st(func(s *sample) float64 { return mb(s.stats.NAIM.PeakBytes) }))
	put("naim.compactions", "count", st(func(s *sample) float64 { return float64(s.stats.NAIM.Compactions) }))
	put("naim.expansions", "count", st(func(s *sample) float64 { return float64(s.stats.NAIM.Expansions) }))
	put("naim.compact_ms", "ms", st(func(s *sample) float64 { return ms(s.stats.NAIM.CompactNanos) }))
	put("naim.disk_ms", "ms", st(func(s *sample) float64 { return ms(s.stats.NAIM.DiskNanos) }))
	put("naim.cache_hit_ratio", "ratio", ratio(builds,
		func(s *sample) float64 { return float64(s.stats.NAIM.CacheHits) },
		func(s *sample) float64 { return float64(s.stats.NAIM.CacheHits + s.stats.NAIM.CacheMisses) }))
	put("naim.lock_wait_ms", "ms", st(func(s *sample) float64 { return ms(s.stats.NAIM.LockWaitNanos) }))

	// llo, backend, link
	put("llo.ms", "ms", st(func(s *sample) float64 { return ms(s.stats.LLONanos) }))
	put("llo.peak_mb", "MB", st(func(s *sample) float64 { return mb(s.stats.LLOPeakBytes) }))
	put("llo.object_hit_ratio", "ratio", ratio(builds,
		func(s *sample) float64 { return float64(s.stats.CacheLLOHits) },
		func(s *sample) float64 { return float64(s.stats.CacheLLOHits + s.stats.CacheLLOMisses) }))
	put("partition.clean_ratio", "ratio", ratio(builds,
		func(s *sample) float64 { return float64(s.stats.PartitionsClean) },
		func(s *sample) float64 { return float64(s.stats.Partitions) }))
	put("link.ms", "ms", st(func(s *sample) float64 { return ms(s.stats.LinkNanos) }))

	// session, repository, graph; the noop.* figures are per no-op
	// rebuild
	put("session.open_ms", "ms", st(func(s *sample) float64 { return ms(s.OpenNs) }))
	put("session.close_ms", "ms", st(func(s *sample) float64 { return ms(s.CloseNs) }))
	put("repo.mb", "MB", st(func(s *sample) float64 { return mb(s.RepoBytes) }))
	put("graph.dirty_closure", "count", mean(builds, func(s *sample) float64 { return float64(s.stats.GraphDirtyClosure) }))
	put("graph.image_replay_ratio", "ratio", ratio(noops,
		func(s *sample) float64 { return float64(boolInt(s.stats.GraphImageReplay)) },
		func(*sample) float64 { return 1 }))
	other := func(s *sample) float64 { return ms(s.Spans.OtherNs) }
	otherPct := func(s *sample) float64 {
		if s.Spans.BuildNs == 0 {
			return 0
		}
		return 100 * float64(s.Spans.OtherNs) / float64(s.Spans.BuildNs)
	}
	put("build.other_ms", "ms", med(tb, other))
	put("build.other_pct", "%", med(tb, otherPct))
	put("noop.open_ms", "ms", med(noops, func(s *sample) float64 { return ms(s.OpenNs) }))
	put("noop.build_ms", "ms", med(noops, func(s *sample) float64 { return ms(s.BuildNs) }))
	put("noop.close_ms", "ms", med(noops, func(s *sample) float64 { return ms(s.CloseNs) }))
	put("noop.other_pct", "%", med(tn, otherPct))

	// cas: client-side request latency, write-back drain, traffic
	put("cas.remote_hit_ratio", "ratio", ratio(builds,
		func(s *sample) float64 { return float64(s.stats.CacheRemoteHits) },
		func(s *sample) float64 { return float64(s.stats.CacheRemoteHits + s.stats.CacheRemoteMisses) }))
	var get, head, putLat []float64
	if b.client != nil {
		get, head, putLat = nsToMs(b.client.lat.get("GET")), nsToMs(b.client.lat.get("HEAD")), nsToMs(b.client.lat.get("PUT"))
	}
	_, getTail := tailOf(get)
	put("cas.get_ms_p50", "ms", median(get))
	put("cas.get_ms_tail", "ms", getTail)
	put("cas.head_ms_p50", "ms", median(head))
	put("cas.put_ms_p50", "ms", median(putLat))
	put("cas.drain_ms", "ms", st(func(s *sample) float64 { return ms(s.DrainNs) }))
	perBuild := func(n float64) float64 { return n / float64(max(len(builds), 1)) }
	requests, inflight := 0, int64(0)
	if b.server != nil {
		requests, inflight = b.server.requests(), b.server.maxIn.Load()
	}
	put("cas.requests_per_build", "count", perBuild(float64(requests)))
	put("cas.served_mb_per_build", "MB", perBuild(mb(b.casServed)))
	var drops, errs int
	for _, s := range append(builds, noops...) {
		drops += s.stats.CacheRemoteDrops
		errs += s.stats.CacheRemoteErrors
	}
	put("cas.remote_drops", "count", float64(drops))
	put("cas.remote_errors", "count", float64(errs))

	// serve: the daemon's /cas/ surface seen from outside its handler
	for _, code := range []int{200, 201, 304, 404, 503} {
		n := 0
		if b.server != nil {
			n = b.server.statusCount(code)
		}
		put(fmt.Sprintf("serve.cas_%d", code), "count", float64(n))
	}
	put("serve.cas_inflight_max", "count", float64(inflight))
	var sget, shead, sput []float64
	if b.server != nil {
		sget, shead, sput = nsToMs(b.server.lat.get("GET")), nsToMs(b.server.lat.get("HEAD")), nsToMs(b.server.lat.get("PUT"))
	}
	put("serve.get_ms_p50", "ms", median(sget))
	put("serve.head_ms_p50", "ms", median(shead))
	put("serve.put_ms_p50", "ms", median(sput))

	// Go runtime and tracing
	if b.allocTotal > 0 {
		put("go.gc_cycles_per_build", "count", perBuild(float64(b.gcCycles)))
		put("go.gc_pause_ms", "ms", perBuild(ms(int64(b.gcPauseNs))))
	} else {
		put("go.gc_cycles_per_build", "count", st(func(s *sample) float64 { return float64(s.GCCycles) }))
		put("go.gc_pause_ms", "ms", st(func(s *sample) float64 { return ms(int64(s.GCPauseNs)) }))
	}
	overhead := 0.0
	if u := med(ub, wall); u > 0 {
		overhead = 100 * (med(tb, wall)/u - 1)
	}
	put("trace.overhead_pct", "%", overhead)
}

// details is the run record written beside the result line.
func (b *bench) details(res result) any {
	wall := func(s *sample) float64 { return ms(s.WallNs) }
	tail := func(ss []*sample) map[string]float64 {
		p, v := tailOf(values(ss, wall))
		return map[string]float64{"percentile": p, "samples": float64(len(ss)), "value_ms": v}
	}
	return map[string]any{
		"workload":     b.cfg.workload,
		"seed":         b.cfg.seed,
		"seconds":      b.cfg.seconds,
		"trace":        b.cfg.trace,
		"program":      map[string]any{"name": b.prog.spec.Name, "generator_seed": b.prog.spec.Seed, "modules": b.prog.spec.Modules},
		"setup_ns":     b.setupNs,
		"setup_cpu_ns": b.setupCPUNs,
		"window_ns":    b.windowNs,
		"build_tail":   tail(untraced(b.ok(kindBuild))),
		"noop_tail":    tail(untraced(b.ok(kindNoop))),
		"result":       res,
		"steps":        b.samples,
	}
}
