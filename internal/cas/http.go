package cas

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// The HTTP surface over a Store: GET/HEAD/PUT /cas/{namespace}/{hash}.
// Entries are immutable, so the ETag of a blob is its key (quoted)
// and If-None-Match is a pure existence test — see the package doc.

// gzipMinBytes is the smallest GET payload worth compressing; tiny
// blobs would grow under the gzip framing.
const gzipMinBytes = 256

// sumHeader carries a blob's integrity checksum (blobSum, 8 hex
// digits) across the wire: set on every GET/HEAD response so clients
// can verify fetched bytes before trusting them, and accepted on PUT
// so the daemon can refuse bytes that were corrupted in transit. The
// sum always describes the uncompressed payload, whatever the
// Content-Encoding.
const sumHeader = "X-Cmo-Sum"

// gzipWriters recycles gzip writers for GET responses and client
// PUT bodies: a fresh writer allocates its whole deflate state (over
// 800 KB), which dwarfs the blobs it compresses.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}

// gzipTo writes blob to w as one gzip stream, using a pooled writer.
func gzipTo(w io.Writer, blob []byte) error {
	gz := gzipWriters.Get().(*gzip.Writer)
	gz.Reset(w)
	_, err := gz.Write(blob)
	if cerr := gz.Close(); err == nil {
		err = cerr
	}
	// Drop the reference to w before the writer goes back.
	gz.Reset(io.Discard)
	gzipWriters.Put(gz)
	return err
}

func formatSum(sum uint32) string { return fmt.Sprintf("%08x", sum) }

// Shed answers a request the service refused for capacity: a 503 that
// carries Retry-After. A client counts a shed request as a miss or a
// dropped store and never toward its breaker — the service is alive,
// only busy. A 503 without Retry-After (a draining daemon) is a
// failure like any other.
func Shed(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	http.Error(w, "cas: server is at capacity", http.StatusServiceUnavailable)
}

// shed reports whether resp is a capacity refusal written by Shed.
func shed(resp *http.Response) bool {
	return resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != ""
}

// Handler mounts a Store's blob protocol. The returned handler owns
// the /cas/ subtree; wrap it for admission control (internal/serve
// checks draining and a slot pool before delegating here).
func Handler(s *Store) http.Handler {
	mux := http.NewServeMux()
	// "GET" patterns also match HEAD in net/http's router.
	mux.HandleFunc("GET /cas/{ns}/{hash}", func(w http.ResponseWriter, r *http.Request) {
		handleGet(s, w, r)
	})
	mux.HandleFunc("PUT /cas/{ns}/{hash}", func(w http.ResponseWriter, r *http.Request) {
		handlePut(s, w, r)
	})
	return mux
}

func etagFor(key string) string { return `"` + key + `"` }

// etagMatches implements the weak If-None-Match comparison: any
// listed tag equal to ours (or "*") matches.
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		tag := strings.TrimSpace(part)
		tag = strings.TrimPrefix(tag, "W/")
		if tag == "*" || tag == etag {
			return true
		}
	}
	return false
}

func handleGet(s *Store, w http.ResponseWriter, r *http.Request) {
	ns, key := r.PathValue("ns"), r.PathValue("hash")
	if !validNamespace(ns) || !validKey(key) {
		http.Error(w, "cas: invalid namespace or key", http.StatusBadRequest)
		return
	}
	etag := etagFor(key)
	// Immutable entries: a client holding any bytes for this key holds
	// the bytes, so a matching If-None-Match needs only existence.
	if etagMatches(r.Header.Get("If-None-Match"), etag) && s.Has(ns, key) {
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	blob, ok := s.Get(ns, key)
	if !ok {
		http.Error(w, "cas: not found", http.StatusNotFound)
		return
	}
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Vary", "Accept-Encoding")
	h.Set(sumHeader, formatSum(blobSum(ns, key, blob)))
	if r.Method == http.MethodHead {
		h.Set("Content-Length", strconv.Itoa(len(blob)))
		w.WriteHeader(http.StatusOK)
		return
	}
	if len(blob) >= gzipMinBytes && acceptsGzip(r) {
		h.Set("Content-Encoding", "gzip")
		_ = gzipTo(w, blob)
		return
	}
	h.Set("Content-Length", strconv.Itoa(len(blob)))
	_, _ = w.Write(blob)
}

func handlePut(s *Store, w http.ResponseWriter, r *http.Request) {
	ns, key := r.PathValue("ns"), r.PathValue("hash")
	if !validNamespace(ns) || !validKey(key) {
		http.Error(w, "cas: invalid namespace or key", http.StatusBadRequest)
		return
	}
	if s.Has(ns, key) {
		// Immutable: same key, same bytes. Skip the body read entirely.
		w.Header().Set("ETag", etagFor(key))
		w.WriteHeader(http.StatusOK)
		return
	}
	limit := s.cfg.MaxBlobBytes + 1
	var body io.Reader = http.MaxBytesReader(w, r.Body, limit)
	if strings.EqualFold(r.Header.Get("Content-Encoding"), "gzip") {
		gz, err := gzip.NewReader(body)
		if err != nil {
			http.Error(w, fmt.Sprintf("cas: bad gzip body: %v", err), http.StatusBadRequest)
			return
		}
		defer gz.Close()
		// MaxBytesReader bounds only the compressed wire bytes; gzip
		// expands up to ~1000x, so the decompressed stream must be
		// re-limited or a small request could balloon into an arbitrary
		// allocation before Put's size check runs. One byte past the cap
		// is enough to tell "too large" from "exactly at the cap".
		body = io.LimitReader(gz, limit)
	}
	blob, err := io.ReadAll(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "cas: request body exceeds per-blob cap", http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, fmt.Sprintf("cas: reading body: %v", err), http.StatusBadRequest)
		}
		return
	}
	if want := r.Header.Get(sumHeader); want != "" && want != formatSum(blobSum(ns, key, blob)) {
		// The client's checksum disagrees with the bytes that arrived:
		// corrupted in transit (or a buggy client). Refusing here keeps
		// a poisoned blob from becoming immutable under a valid key.
		http.Error(w, "cas: body does not match "+sumHeader, http.StatusBadRequest)
		return
	}
	if err := s.Put(ns, key, blob); err != nil {
		// Oversize is the client's fault (413); anything else is the
		// store failing to write (507).
		if errors.Is(err, ErrBlobTooLarge) {
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, err.Error(), http.StatusInsufficientStorage)
		}
		return
	}
	w.Header().Set("ETag", etagFor(key))
	w.WriteHeader(http.StatusCreated)
}

func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc := strings.TrimSpace(part)
		if enc == "gzip" || strings.HasPrefix(enc, "gzip;") {
			return true
		}
	}
	return false
}
