package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	cmo "cmo"
	"cmo/internal/cas"
	"cmo/internal/naim"
	"cmo/internal/serve"
)

// The four workloads. README.md says why each exists and which layers
// it stresses; the comments here say how each is driven.

// coldCMO: the gcc-like program at 32 modules, O4 with every module in
// CMO, each build in a fresh cache directory. HLO-bound. Its set-up is
// one cold build, which warms the process.
func (b *bench) coldCMO() error {
	b.prog = b.gccLike()
	var dir string
	if err := b.setup(b.coldBuildInto(&dir)); err != nil {
		return err
	}
	return b.coldWindow()
}

// coldBuildInto is a set-up step: one cold build into a fresh cache
// directory, which *dir receives and the cleanup removes.
func (b *bench) coldBuildInto(dir *string) func() (func(), error) {
	return func() (func(), error) {
		d, err := b.newDir("setup")
		if err != nil {
			return nil, err
		}
		opt := b.prog.opt
		opt.CacheDir = d
		_, err = cmo.BuildSource(b.prog.mods, opt)
		*dir = d
		return func() { os.RemoveAll(d) }, err
	}
}

// coldSelective: Mcad1 at O4+PBO with the paper's shipped 10%
// selectivity and the Figure 4 NAIM protocol: an adaptive budget of a
// quarter of the unbudgeted peak. Set-up trains the profile and
// measures that peak.
func (b *bench) coldSelective() error {
	b.prog = b.mcad1()
	p := &b.prog
	err := b.setup(func() (func(), error) {
		db, err := cmo.Train(p.mods, []map[string]int64{p.trainInputs()}, cmo.Options{Jobs: p.opt.Jobs, Volatile: p.opt.Volatile})
		if err != nil {
			return nil, fmt.Errorf("training: %w", err)
		}
		cal, err := cmo.BuildSource(p.mods, cmo.Options{
			Level: cmo.O4, SelectPercent: -1, Jobs: p.opt.Jobs, Volatile: p.opt.Volatile,
			NAIM: naim.Config{ForceLevel: naim.LevelOff},
		})
		if err != nil {
			return nil, fmt.Errorf("peak calibration: %w", err)
		}
		p.opt.PBO, p.opt.DB = true, db
		p.opt.NAIM = naim.Config{BudgetBytes: cal.Stats.NAIM.PeakBytes / 4, ForceLevel: naim.Adaptive, CacheSlots: 24}
		return nil, nil
	})
	if err != nil {
		return err
	}
	return b.coldWindow()
}

// coldWindow times cold builds, each into a fresh cache directory and
// each followed by a no-op rebuild of the same directory.
func (b *bench) coldWindow() error {
	p := b.prog
	return b.window(func(i int) error {
		dir, err := b.newDir("cold")
		if err != nil {
			return err
		}
		req := buildReq{kind: kindBuild, dir: dir, mods: p.mods, opt: p.opt, step: i,
			traced: b.cfg.trace && i%2 == 1, alone: true}
		b.timedBuild(req)
		req.kind = kindNoop
		b.timedBuild(req)
		return os.RemoveAll(dir)
	})
}

// editLoop: the developer's inner loop on the gcc-like program over one
// cache directory warmed in set-up. Steps come in blocks of twelve in
// a seeded order: a semantic and a comment edit in each of the first,
// middle and last module, and six no-op rebuilds. Edits accumulate.
func (b *bench) editLoop() error {
	b.prog = b.gccLike()
	p := b.prog
	var dir string
	if err := b.setup(b.coldBuildInto(&dir)); err != nil {
		return err
	}

	type editStep struct {
		kind string // "semantic", "comment" or "noop"
		band int
	}
	var block []editStep
	blockNo, comments := -1, 0
	bands := editBands(p.spec.Modules)
	cur := p.mods
	return b.window(func(i int) error {
		if len(block) == 0 {
			blockNo++
			for band := range bands {
				block = append(block, editStep{"semantic", band}, editStep{"comment", band})
			}
			for j := 0; j < 6; j++ {
				block = append(block, editStep{kind: "noop"})
			}
			b.rng.Shuffle(len(block), func(x, y int) { block[x], block[y] = block[y], block[x] })
		}
		st := block[0]
		block = block[1:]
		req := buildReq{kind: kindBuild, dir: dir, opt: p.opt, step: i,
			traced: b.cfg.trace && blockNo%2 == 1, alone: true}
		var err error
		switch st.kind {
		case "semantic":
			req.mods, req.edit, err = semanticEdit(cur, bands[st.band], b.rng.Intn(p.spec.HotPerModule), b.rng)
			if err != nil {
				return err
			}
		case "comment":
			comments++
			req.mods, req.edit = commentEdit(cur, bands[st.band], comments, b.rng)
		default:
			req.kind, req.mods = kindNoop, cur
		}
		b.timedBuild(req)
		cur = req.mods
		return nil
	})
}

// sharedCache: an in-process cmod (serve.Server with a CAS store, at
// cmod's default admission) on loopback, filled in set-up by one cold
// build. After one untimed round, two closed-loop clients each build fresh
// checkouts — an empty local repository with the remote attached, the
// base program plus one seeded semantic edit. After the window every
// checkout is rebuilt once unchanged, one at a time, so no-op timings
// do not depend on how the two clients happened to overlap.
func (b *bench) sharedCache() error {
	const clients = 2
	b.prog = b.gccLike()
	p := b.prog
	if b.cfg.trace {
		b.client = &clientMeter{next: http.DefaultTransport, spans: b.spans}
		http.DefaultTransport = b.client
	}
	var svc *service
	err := b.setup(func() (func(), error) {
		s, err := b.startService()
		if err != nil {
			return nil, err
		}
		svc = s
		dir, err := b.newDir("fill")
		if err != nil {
			return s.stop, err
		}
		defer os.RemoveAll(dir)
		opt := p.opt
		opt.CacheDir, opt.RemoteCache = dir, s.url
		_, err = cmo.BuildSource(p.mods, opt)
		return s.stop, err
	})
	if err != nil {
		if svc != nil {
			svc.stop()
		}
		return err
	}
	defer svc.stop()

	// One edit seed per build index, drawn before the window, so build
	// i makes the same edit whichever client runs it.
	seeds := make([]int64, 4096)
	for i := range seeds {
		seeds[i] = b.rng.Int63()
	}
	checkout := func(i int) ([]cmo.SourceModule, string, error) {
		rng := rand.New(rand.NewSource(seeds[i]))
		band := editBands(p.spec.Modules)[i%3]
		return semanticEdit(p.mods, band, rng.Intn(p.spec.HotPerModule), rng)
	}

	// Warm-up, untimed: the first concurrent checkouts after the fill
	// write the records later checkouts replay, so one round of them
	// runs before the window.
	const warmup = 2 * clients
	err = runClients(clients, 0, func(i int) bool { return i < warmup }, func(_, i int) error {
		mods, _, err := checkout(i)
		if err != nil {
			return err
		}
		dir, err := b.newDir("warmup")
		if err != nil {
			return err
		}
		opt := p.opt
		opt.CacheDir, opt.RemoteCache = dir, svc.url
		if _, err := cmo.BuildSource(mods, opt); err != nil {
			return err
		}
		return os.RemoveAll(dir)
	})
	if err != nil {
		return err
	}
	if b.cfg.trace {
		b.client.lat.reset()
		b.server.reset()
	}
	casBefore := svc.store.Stats()

	var (
		mu        sync.Mutex
		checkouts []buildReq
		m0, m1    runtime.MemStats
	)
	limit := time.Duration(b.cfg.seconds * float64(time.Second))
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	t0 := time.Now()
	err = runClients(clients, warmup, func(i int) bool { return time.Since(t0) < limit && i < len(seeds) }, func(c, i int) error {
		mods, desc, err := checkout(i)
		if err != nil {
			return err
		}
		dir, err := b.newDir("checkout")
		if err != nil {
			return err
		}
		req := buildReq{kind: kindBuild, dir: dir, mods: mods, opt: p.opt, remote: svc.url,
			client: c, step: i, edit: desc, traced: b.cfg.trace && i%2 == 1}
		b.timedBuild(req)
		mu.Lock()
		checkouts = append(checkouts, req)
		mu.Unlock()
		return nil
	})
	b.windowNs = time.Since(t0).Nanoseconds()
	b.windowCPUNs = processCPU() - cpu0
	runtime.ReadMemStats(&m1)
	b.allocTotal = m1.TotalAlloc - m0.TotalAlloc
	b.mallocTotal = m1.Mallocs - m0.Mallocs
	b.gcCycles = m1.NumGC - m0.NumGC
	b.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	b.casServed = svc.store.Stats().BytesServed - casBefore.BytesServed
	if err != nil {
		return err
	}
	for _, req := range checkouts {
		req.kind, req.alone = kindNoop, true
		b.timedBuild(req)
		if err := os.RemoveAll(req.dir); err != nil {
			return err
		}
	}
	return nil
}

// runClients runs n closed-loop clients. Each takes the next build
// index, starting at first, and calls build(client, index) while
// more(index) holds. It returns when every client has stopped, with
// the first error any of them met.
func runClients(n, first int, more func(i int) bool, build func(client, i int) error) error {
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	next.Store(int64(first))
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if !more(i) {
					return
				}
				if err := build(c, i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return firstErr
}

// service is an in-process cmod serving /cas/ on loopback.
type service struct {
	store *cas.Store
	url   string
	stop  func()
}

// startService brings up the daemon cmod -cas-dir runs, with cmod's
// default admission (serve.Config's defaults: two builds, eight CAS
// slots).
func (b *bench) startService() (*service, error) {
	dir, err := b.newDir("cas")
	if err != nil {
		return nil, err
	}
	store, err := cas.OpenStore(dir, cas.Config{})
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{CAS: store})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	h := srv.Handler()
	if b.cfg.trace {
		b.server = &serverMeter{next: h}
		h = b.server
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "benchmark: cas service:", err)
		}
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			hs.Close()
			<-done
			if err := srv.Drain(); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark: draining cas service:", err)
			}
		})
	}
	return &service{store: store, url: "http://" + ln.Addr().String(), stop: stop}, nil
}
