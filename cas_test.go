package cmo_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	cmo "cmo"
	"cmo/internal/cas"
	"cmo/internal/serve"
	"cmo/internal/workload"
)

// The shared cache's load-bearing invariant, tested from outside: a
// remote CAS level changes where artifacts come from, never what the
// linker emits. Every test here compares against a local-only build
// of the same sources and demands byte identity — with the remote
// cold, warm, evicting under a tight cap, owned by another tenant,
// dying mid-build, or never reachable at all.
//
// This file is an external test package (cmo_test) for the same
// reason as distributed_test.go: it spins up real daemon handlers,
// and internal/serve imports cmo.

func casSpec(seed int64) workload.Spec {
	return workload.Spec{
		Name: "cas", Seed: seed,
		Modules: 5, HotPerModule: 2, ColdPerModule: 3, ColdStmts: 8,
		ArrayElems: 16,
		TrainIters: 30, RefIters: 80, TrainMode: 2, RefMode: 4,
	}
}

func casSources(spec workload.Spec) []cmo.SourceModule {
	var mods []cmo.SourceModule
	for _, m := range spec.Generate() {
		mods = append(mods, cmo.SourceModule{Name: m.Name + ".minc", Text: m.Text})
	}
	return mods
}

func casBuild(t *testing.T, mods []cmo.SourceModule, opt cmo.Options) *cmo.Build {
	t.Helper()
	opt.Level = cmo.O4
	opt.SelectPercent = -1
	opt.Volatile = workload.InputGlobals()
	b, err := cmo.BuildSource(mods, opt)
	if err != nil {
		t.Fatalf("build (remote=%q ns=%q): %v", opt.RemoteCache, opt.RemoteNamespace, err)
	}
	if b.Stats.PinLeaks > 0 {
		t.Fatalf("build leaked %d loader pins (remote=%q)", b.Stats.PinLeaks, opt.RemoteCache)
	}
	return b
}

// newCASDaemon starts a cmod-shaped daemon serving a shared artifact
// cache alongside its build endpoints, exactly as cmd/cmod -cas-dir
// wires it. Drain (which closes the store) runs at cleanup.
func newCASDaemon(t *testing.T, cfg cas.Config) (*cas.Store, *httptest.Server) {
	t.Helper()
	store, err := cas.OpenStore(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{MaxBuilds: 1, CAS: store})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain()
	})
	return store, ts
}

// TestRemoteCacheSharedDaemon is the tentpole's acceptance test: four
// concurrent clients, each with its own local repository, build the
// same program through one daemon's CAS; every image is byte-identical
// to a local-only build, the daemon records nonzero hits, and a fifth
// client with a fresh local repository fills from the shared cache.
func TestRemoteCacheSharedDaemon(t *testing.T) {
	spec := casSpec(131)
	mods := casSources(spec)
	want := casBuild(t, mods, cmo.Options{}).Image.Disasm()

	store, ts := newCASDaemon(t, cas.Config{})

	var wg sync.WaitGroup
	images := make([]string, 4)
	stats := make([]cmo.BuildStats, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b := casBuild(t, mods, cmo.Options{
				CacheDir:    t.TempDir(),
				RemoteCache: ts.URL,
			})
			images[i] = b.Image.Disasm()
			stats[i] = b.Stats
		}(i)
	}
	wg.Wait()
	for i, img := range images {
		if img != want {
			t.Errorf("client %d: image differs from local-only build", i)
		}
	}
	// The builds raced, but collectively they must have populated the
	// shared store (each client's write-back drains before BuildSource
	// returns).
	var stores int
	for _, s := range stats {
		stores += s.CacheRemoteStores
		if s.CacheRemoteErrors > 0 {
			t.Errorf("remote errors against a healthy daemon: %+v", s)
		}
	}
	if stores == 0 {
		t.Errorf("four cold clients stored nothing remotely")
	}
	if st := store.Stats(); st.Puts == 0 {
		t.Errorf("shared store accepted no blobs: %+v", st)
	}

	// A fresh local repository now warms from the shared cache: remote
	// hits, same bytes.
	b := casBuild(t, mods, cmo.Options{CacheDir: t.TempDir(), RemoteCache: ts.URL})
	if b.Image.Disasm() != want {
		t.Errorf("warm-remote image differs from local-only build")
	}
	if b.Stats.CacheRemoteHits == 0 {
		t.Errorf("fresh client against a warm cache recorded no remote hits: %+v", b.Stats)
	}
	if st := store.Stats(); st.Hits == 0 {
		t.Errorf("daemon store served no hits: %+v", st)
	}

	// The daemon's /metrics surface reports the same traffic.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	page := string(body)
	for _, series := range []string{"cmod_cas_hits_total", "cmod_cas_puts_total", "cmod_cas_bytes"} {
		if !strings.Contains(page, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
	if strings.Contains(page, "cmod_cas_hits_total 0\n") {
		t.Errorf("/metrics reports zero CAS hits after a warm build")
	}
}

// TestRemoteCacheEvictionIdentity squeezes the shared store so hard
// that artifacts are evicted while clients still depend on them: a
// cap far below one build's artifact footprint means later fills
// evict earlier ones mid-build. Byte identity must survive, and the
// disk budget must hold throughout.
func TestRemoteCacheEvictionIdentity(t *testing.T) {
	spec := casSpec(137)
	mods := casSources(spec)
	want := casBuild(t, mods, cmo.Options{}).Image.Disasm()

	const capBytes = 8 << 10
	store, ts := newCASDaemon(t, cas.Config{MaxBytes: capBytes})

	for round := 0; round < 3; round++ {
		b := casBuild(t, mods, cmo.Options{CacheDir: t.TempDir(), RemoteCache: ts.URL})
		if b.Image.Disasm() != want {
			t.Fatalf("round %d: image differs from local-only build mid-eviction", round)
		}
		if live := store.LiveBytes(); live > capBytes {
			t.Fatalf("round %d: store holds %d bytes over the %d cap", round, live, capBytes)
		}
	}
	st := store.Stats()
	if st.Evictions == 0 {
		t.Errorf("an %d-byte cap under three builds never evicted: %+v", capBytes, st)
	}
	if st.LiveBytes > capBytes {
		t.Errorf("final live bytes %d exceed cap %d", st.LiveBytes, capBytes)
	}
}

// TestRemoteCacheNamespaceIsolation: two tenants share one daemon but
// see disjoint caches. Tenant B, building the identical program under
// its own namespace with a fresh local repository, gets zero remote
// hits from tenant A's artifacts — and the same bytes anyway.
func TestRemoteCacheNamespaceIsolation(t *testing.T) {
	spec := casSpec(139)
	mods := casSources(spec)
	want := casBuild(t, mods, cmo.Options{}).Image.Disasm()

	_, ts := newCASDaemon(t, cas.Config{})

	a := casBuild(t, mods, cmo.Options{
		CacheDir: t.TempDir(), RemoteCache: ts.URL, RemoteNamespace: "tenant-a",
	})
	if a.Image.Disasm() != want {
		t.Fatalf("tenant A image differs from local-only build")
	}
	if a.Stats.CacheRemoteStores == 0 {
		t.Fatalf("tenant A stored nothing; isolation test has no teeth: %+v", a.Stats)
	}

	b := casBuild(t, mods, cmo.Options{
		CacheDir: t.TempDir(), RemoteCache: ts.URL, RemoteNamespace: "tenant-b",
	})
	if b.Image.Disasm() != want {
		t.Errorf("tenant B image differs from local-only build")
	}
	if b.Stats.CacheRemoteHits != 0 {
		t.Errorf("tenant B hit %d of tenant A's artifacts", b.Stats.CacheRemoteHits)
	}

	// Same namespace does share: a third client as tenant-a hits.
	a2 := casBuild(t, mods, cmo.Options{
		CacheDir: t.TempDir(), RemoteCache: ts.URL, RemoteNamespace: "tenant-a",
	})
	if a2.Stats.CacheRemoteHits == 0 {
		t.Errorf("second tenant-a client shared nothing: %+v", a2.Stats)
	}
}

// TestRemoteCacheDiesMidBuild kills the cache service partway through
// a build: after a handful of requests the daemon starts slamming
// connections shut, mid-protocol. The client must absorb every
// failure — same bytes as local-only, zero pin leaks — and its
// breaker must stop it from hammering the corpse.
func TestRemoteCacheDiesMidBuild(t *testing.T) {
	spec := casSpec(149)
	mods := casSources(spec)
	want := casBuild(t, mods, cmo.Options{}).Image.Disasm()

	store, err := cas.OpenStore(t.TempDir(), cas.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	inner := cas.Handler(store)
	var served atomic.Int64
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) > 3 {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer dying.Close()

	b := casBuild(t, mods, cmo.Options{
		CacheDir:           t.TempDir(),
		RemoteCache:        dying.URL,
		RemoteCacheTimeout: 500 * time.Millisecond,
	})
	if b.Image.Disasm() != want {
		t.Errorf("image differs from local-only build after the cache died mid-build")
	}
	if b.Stats.CacheRemoteErrors == 0 {
		t.Errorf("the dying cache registered no errors; it died too late to test anything: served %d", served.Load())
	}
	// The breaker bounds the damage: once tripped, remaining lookups
	// answer locally without a request, so the wire saw far fewer
	// requests than the build made lookups.
	if b.Stats.CacheRemoteHits+b.Stats.CacheRemoteMisses+b.Stats.CacheRemoteErrors == 0 {
		t.Errorf("no remote traffic at all; the remote level never engaged")
	}
}

// TestRemoteCacheUnreachable: a remote URL that was never up is an
// absorbed failure, not an error — the build is local-only in all but
// the counters.
func TestRemoteCacheUnreachable(t *testing.T) {
	spec := casSpec(151)
	mods := casSources(spec)
	want := casBuild(t, mods, cmo.Options{}).Image.Disasm()

	dead := httptest.NewServer(http.NotFoundHandler())
	url := dead.URL
	dead.Close()

	b := casBuild(t, mods, cmo.Options{
		CacheDir:           t.TempDir(),
		RemoteCache:        url,
		RemoteCacheTimeout: 200 * time.Millisecond,
	})
	if b.Image.Disasm() != want {
		t.Errorf("image differs from local-only build with an unreachable remote")
	}
	if b.Stats.CacheRemoteErrors == 0 {
		t.Errorf("unreachable remote recorded no errors: %+v", b.Stats)
	}
	if b.Stats.CacheRemoteHits != 0 {
		t.Errorf("%d hits against nothing", b.Stats.CacheRemoteHits)
	}
}

// TestRemoteCacheShedReported: a remote that refuses every request for
// capacity (503 with Retry-After, via cas.Shed) is a busy service, not
// a broken one. The build stays local-only in bytes, the sheds reach
// BuildStats apart from the errors, and the -timing remote-cache line
// reports them.
func TestRemoteCacheShedReported(t *testing.T) {
	spec := casSpec(157)
	mods := casSources(spec)
	want := casBuild(t, mods, cmo.Options{}).Image.Disasm()

	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cas.Shed(w)
	}))
	defer busy.Close()

	b := casBuild(t, mods, cmo.Options{CacheDir: t.TempDir(), RemoteCache: busy.URL})
	if b.Image.Disasm() != want {
		t.Errorf("image differs from local-only build with a shedding remote")
	}
	s := b.Stats
	if s.CacheRemoteShed == 0 {
		t.Fatalf("shedding remote recorded no sheds: %+v", s)
	}
	if s.CacheRemoteErrors != 0 || s.CacheRemoteHits != 0 {
		t.Errorf("sheds counted as %d errors, %d hits; want 0, 0", s.CacheRemoteErrors, s.CacheRemoteHits)
	}
	line := fmt.Sprintf(", %d shed", s.CacheRemoteShed)
	if rep := b.TimingReport(); !strings.Contains(rep, "remote cache:") || !strings.Contains(rep, line) {
		t.Errorf("TimingReport missing %q on the remote cache line:\n%s", line, rep)
	}
}

// TestRemoteCacheDrainingDaemon503: a draining daemon refuses /cas
// with 503 and clients degrade exactly as if it had died.
func TestRemoteCacheDrainingDaemon503(t *testing.T) {
	store, err := cas.OpenStore(t.TempDir(), cas.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{MaxBuilds: 1, CAS: store})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	key := fmt.Sprintf("%064x", 0xfeed)

	resp, err := http.Get(ts.URL + "/cas/default/" + key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pre-drain GET: %d, want 404", resp.StatusCode)
	}
	srv.Drain()
	resp, err = http.Get(ts.URL + "/cas/default/" + key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain GET: %d, want 503", resp.StatusCode)
	}
}
