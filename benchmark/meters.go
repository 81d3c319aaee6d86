package main

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cmo/internal/obs"
)

// The CAS service measured from outside, in traced runs only: a
// RoundTripper on the client side and a wrapper around the daemon's
// Handler on the server side. Neither changes what the program does.

// latencies collects request durations per HTTP verb.
type latencies struct {
	mu sync.Mutex
	ns map[string][]int64
}

func (l *latencies) add(verb string, d int64) {
	l.mu.Lock()
	if l.ns == nil {
		l.ns = map[string][]int64{}
	}
	l.ns[verb] = append(l.ns[verb], d)
	l.mu.Unlock()
}

func (l *latencies) reset() {
	l.mu.Lock()
	l.ns = nil
	l.mu.Unlock()
}

func (l *latencies) get(verb string) []int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int64(nil), l.ns[verb]...)
}

// clientMeter times each CAS request as the client sees it, from
// sending the request to closing the response body, and records it as
// a benchmark span.
type clientMeter struct {
	next  http.RoundTripper
	spans *obs.Trace
	lat   latencies
}

func (m *clientMeter) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.Contains(req.URL.Path, "/cas/") {
		return m.next.RoundTrip(req)
	}
	sp := m.spans.StartSpan("cas client " + strings.ToLower(req.Method))
	resp, err := m.next.RoundTrip(req)
	if err != nil {
		m.lat.add(req.Method, sp.End())
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { m.lat.add(req.Method, sp.End()) }}
	return resp, nil
}

// timedBody ends its request's span when the client closes the body.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// serverMeter wraps the daemon's handler: per-verb latency of /cas/
// requests, the mix of response statuses, and the most requests in
// flight at once (counted before the daemon's own admission, so it
// shows the load offered to the CAS slots).
type serverMeter struct {
	next     http.Handler
	lat      latencies
	inflight atomic.Int64
	maxIn    atomic.Int64
	mu       sync.Mutex
	status   map[int]int
}

func (m *serverMeter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/cas/") {
		m.next.ServeHTTP(w, r)
		return
	}
	n := m.inflight.Add(1)
	for {
		cur := m.maxIn.Load()
		if n <= cur || m.maxIn.CompareAndSwap(cur, n) {
			break
		}
	}
	t0 := time.Now()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	m.next.ServeHTTP(sw, r)
	m.lat.add(r.Method, time.Since(t0).Nanoseconds())
	m.inflight.Add(-1)
	m.mu.Lock()
	if m.status == nil {
		m.status = map[int]int{}
	}
	m.status[sw.code]++
	m.mu.Unlock()
}

// reset forgets everything measured so far (set-up and warm-up).
func (m *serverMeter) reset() {
	m.lat.reset()
	m.mu.Lock()
	m.status = nil
	m.mu.Unlock()
	m.maxIn.Store(0)
}

func (m *serverMeter) statusCount(code int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.status[code]
}

func (m *serverMeter) requests() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, c := range m.status {
		n += c
	}
	return n
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}
