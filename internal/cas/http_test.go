package cas

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

func newTestService(t *testing.T, cfg Config) (*Store, *httptest.Server) {
	t.Helper()
	s, err := OpenStore(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(s))
	t.Cleanup(func() { srv.Close(); s.Close() })
	return s, srv
}

// plainClient disables the transport's transparent gzip so tests can
// see the wire encoding.
func plainClient() *http.Client {
	return &http.Client{Transport: &http.Transport{DisableCompression: true}}
}

func TestHTTPPutGetRoundTrip(t *testing.T) {
	_, srv := newTestService(t, Config{})
	key := keyFor("http")
	blob := blobOf("http", 4096)

	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/cas/t/"+key, bytes.NewReader(blob))
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("ETag"); got != `"`+key+`"` {
		t.Fatalf("PUT ETag %q", got)
	}

	resp, err = srv.Client().Get(srv.URL + "/cas/t/" + key)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, blob) {
		t.Fatalf("GET: %d, %d bytes", resp.StatusCode, len(got))
	}

	resp, err = srv.Client().Get(srv.URL + "/cas/t/" + keyFor("absent"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET absent: %d", resp.StatusCode)
	}
}

// The If-None-Match round trip: a client that has the blob revalidates
// with the key ETag and gets a bodyless 304.
func TestHTTPIfNoneMatch304(t *testing.T) {
	s, srv := newTestService(t, Config{})
	key := keyFor("etag")
	if err := s.Put("t", key, blobOf("etag", 512)); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/cas/t/"+key, nil)
	req.Header.Set("If-None-Match", `"`+key+`"`)
	resp, err := plainClient().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match: %d, want 304", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Fatalf("304 carried %d body bytes", len(body))
	}
	if got := resp.Header.Get("ETag"); got != `"`+key+`"` {
		t.Fatalf("304 ETag %q", got)
	}
	// A mismatched tag (some other key) gets the full body.
	req, _ = http.NewRequest(http.MethodGet, srv.URL+"/cas/t/"+key, nil)
	req.Header.Set("If-None-Match", `"`+keyFor("other")+`"`)
	resp, err = plainClient().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("mismatched If-None-Match: %d, %d bytes", resp.StatusCode, len(body))
	}
	// If-None-Match for an absent key falls through to 404 (existence
	// test on an immutable store).
	req, _ = http.NewRequest(http.MethodGet, srv.URL+"/cas/t/"+keyFor("gone"), nil)
	req.Header.Set("If-None-Match", `"`+keyFor("gone")+`"`)
	resp, err = plainClient().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("If-None-Match absent: %d, want 404", resp.StatusCode)
	}
}

// Wire compression both directions: a gzip PUT body is decompressed
// into the store, and a gzip-accepting GET gets a compressed body
// that inflates to the original blob.
func TestHTTPGzipBothWays(t *testing.T) {
	s, srv := newTestService(t, Config{})
	key := keyFor("gzip")
	blob := bytes.Repeat([]byte("compressible payload "), 500)

	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write(blob)
	gz.Close()
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/cas/t/"+key, &buf)
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("gzip PUT: %d", resp.StatusCode)
	}
	if got, ok := s.Get("t", key); !ok || !bytes.Equal(got, blob) {
		t.Fatalf("stored payload wrong: ok=%v %d bytes", ok, len(got))
	}

	req, _ = http.NewRequest(http.MethodGet, srv.URL+"/cas/t/"+key, nil)
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err = plainClient().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding %q, want gzip", enc)
	}
	gr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(gr)
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("gzip GET: err=%v, %d bytes", err, len(got))
	}
}

// Tenant isolation over the wire: the same key under different
// namespace paths is two different blobs, and cross-tenant reads 404.
func TestHTTPNamespaceIsolation(t *testing.T) {
	_, srv := newTestService(t, Config{})
	key := keyFor("multi")
	for tenant, payload := range map[string]string{"alice": "alice-bytes", "bob": "bob-bytes"} {
		req, _ := http.NewRequest(http.MethodPut, srv.URL+"/cas/"+tenant+"/"+key,
			bytes.NewReader([]byte(payload)))
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT %s: %d", tenant, resp.StatusCode)
		}
	}
	for tenant, want := range map[string]string{"alice": "alice-bytes", "bob": "bob-bytes"} {
		resp, err := srv.Client().Get(srv.URL + "/cas/" + tenant + "/" + key)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(got) != want {
			t.Fatalf("tenant %s read %q, want %q", tenant, got, want)
		}
	}
	resp, err := srv.Client().Get(srv.URL + "/cas/carol/" + key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("tenant without the blob got %d, want 404", resp.StatusCode)
	}
}

func TestHTTPRejectsBadNames(t *testing.T) {
	_, srv := newTestService(t, Config{})
	for _, path := range []string{
		"/cas/t/short",                      // not 64 hex
		"/cas/t/" + keyFor("x")[:63] + "Z",  // non-hex
		"/cas/bad%2Fname/" + keyFor("x"),    // slash in namespace
		"/cas/" + keyFor("x") + "x/too/far", // extra path
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("GET %s succeeded", path)
		}
	}
}

func TestHTTPHead(t *testing.T) {
	s, srv := newTestService(t, Config{})
	key := keyFor("head")
	if err := s.Put("t", key, blobOf("head", 300)); err != nil {
		t.Fatal(err)
	}
	resp, err := plainClient().Head(srv.URL + "/cas/t/" + key)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != 0 {
		t.Fatalf("HEAD: %d, %d body bytes", resp.StatusCode, len(body))
	}
	if got := resp.Header.Get("Content-Length"); got != "300" {
		t.Fatalf("HEAD Content-Length %q", got)
	}
	resp, err = plainClient().Head(srv.URL + "/cas/t/" + keyFor("absent"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("HEAD absent: %d", resp.StatusCode)
	}
}

// PUT for a key the store already holds skips the body entirely and
// answers 200 (immutable entries).
func TestHTTPDuplicatePut(t *testing.T) {
	s, srv := newTestService(t, Config{})
	key := keyFor("dup")
	if err := s.Put("t", key, blobOf("dup", 100)); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/cas/t/"+key,
		bytes.NewReader(blobOf("dup", 100)))
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate PUT: %d, want 200", resp.StatusCode)
	}
	if st := s.Stats(); st.Puts != 1 {
		t.Fatalf("duplicate PUT wrote: %+v", st)
	}
}

func TestHTTPOversizedPut(t *testing.T) {
	_, srv := newTestService(t, Config{MaxBlobBytes: 1024})
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/cas/t/"+keyFor("big"),
		bytes.NewReader(make([]byte, 4096)))
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Over-cap is the client's fault and says so: 413, not a disk
	// error dressed as 507.
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized PUT: %d, want 413", resp.StatusCode)
	}
}

// A small compressed body that inflates far past the per-blob cap is
// refused with 413 after a bounded read: the decompressed stream is
// re-limited, so a gzip bomb can cost the daemon at most one
// cap-sized allocation, never a multi-GiB one.
func TestHTTPGzipBombRejected(t *testing.T) {
	s, srv := newTestService(t, Config{MaxBlobBytes: 64 << 10})
	var bomb bytes.Buffer
	gz := gzip.NewWriter(&bomb)
	gz.Write(make([]byte, 1<<20)) // 1 MiB of zeros, ~1 KiB on the wire
	gz.Close()
	if bomb.Len() > 64<<10 {
		t.Fatalf("bomb did not compress under the wire cap: %d bytes", bomb.Len())
	}
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/cas/t/"+keyFor("bomb"), &bomb)
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("gzip bomb: %d, want 413", resp.StatusCode)
	}
	if st := s.Stats(); st.Puts != 0 {
		t.Fatalf("gzip bomb stored: %+v", st)
	}
}

// The integrity header round trip: GET responses carry the blob's
// checksum, a PUT whose declared checksum matches the received bytes
// is accepted, and a mismatch is refused before the bytes can become
// immutable under a valid key.
func TestHTTPSumHeader(t *testing.T) {
	s, srv := newTestService(t, Config{})
	key := keyFor("sum")
	blob := blobOf("sum", 700)

	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/cas/t/"+key, bytes.NewReader(blob))
	req.Header.Set(sumHeader, formatSum(blobSum("t", key, blob)))
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT with matching sum: %d", resp.StatusCode)
	}

	resp, err = srv.Client().Get(srv.URL + "/cas/t/" + key)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got, want := resp.Header.Get(sumHeader), formatSum(blobSum("t", key, blob)); got != want {
		t.Fatalf("GET %s = %q, want %q", sumHeader, got, want)
	}

	// A declared sum that disagrees with the bytes that arrived is a
	// 400, and nothing lands in the store.
	key2 := keyFor("sum-mismatch")
	req, _ = http.NewRequest(http.MethodPut, srv.URL+"/cas/t/"+key2, bytes.NewReader(blob))
	req.Header.Set(sumHeader, "00000000")
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT with wrong sum: %d, want 400", resp.StatusCode)
	}
	if s.Has("t", key2) {
		t.Fatal("mismatched blob stored anyway")
	}
}

// Fill past the cap through the HTTP surface; the service's disk
// budget must hold while it keeps answering.
func TestHTTPEvictionKeepsServing(t *testing.T) {
	s, srv := newTestService(t, Config{MaxBytes: 16 << 10})
	var lastKey string
	for i := 0; i < 64; i++ {
		seed := fmt.Sprintf("fill-%d", i)
		lastKey = keyFor(seed)
		req, _ := http.NewRequest(http.MethodPut, srv.URL+"/cas/t/"+lastKey,
			bytes.NewReader(blobOf(seed, 1<<10)))
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT %d: %d", i, resp.StatusCode)
		}
	}
	st := s.Stats()
	if st.LiveBytes > 16<<10 || st.Evictions == 0 {
		t.Fatalf("cap not held: %+v", st)
	}
	// The most recent entry survived and still serves.
	resp, err := srv.Client().Get(srv.URL + "/cas/t/" + lastKey)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("newest entry evicted: %d", resp.StatusCode)
	}
}

// Gzip writers are pooled on both sides of the wire (the handler's
// GET responses, the client's PUT bodies). A writer that kept state
// from its previous stream would corrupt the next one, so sequential
// and concurrent gzip PUTs and GETs of distinct blobs through one
// handler must each decode to their own bytes and checksum.
func TestHTTPGzipPooledWriters(t *testing.T) {
	s, err := OpenStore(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var gzipPuts atomic.Int64
	h := Handler(s)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && r.Header.Get("Content-Encoding") == "gzip" {
			gzipPuts.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { srv.Close(); s.Close() })
	c := NewClient(srv.URL, ClientConfig{Namespace: "gz"})
	defer c.Close()
	hc := plainClient()

	const n = 24
	keys, blobs := make([]string, n), make([][]byte, n)
	for i := range keys {
		seed := fmt.Sprintf("pooled-%d", i)
		keys[i], blobs[i] = keyFor(seed), blobOf(seed, 2048+97*i)
	}
	put := func(i int) error {
		c.put(keys[i], blobs[i])
		if got, ok := s.Get("gz", keys[i]); !ok || !bytes.Equal(got, blobs[i]) {
			return fmt.Errorf("blob %d: stored payload wrong (ok=%v)", i, ok)
		}
		return nil
	}
	get := func(i int) error {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/cas/gz/"+keys[i], nil)
		req.Header.Set("Accept-Encoding", "gzip")
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if enc := resp.Header.Get("Content-Encoding"); resp.StatusCode != http.StatusOK || enc != "gzip" {
			return fmt.Errorf("blob %d: GET %d, Content-Encoding %q", i, resp.StatusCode, enc)
		}
		gr, err := gzip.NewReader(resp.Body)
		if err != nil {
			return fmt.Errorf("blob %d: %v", i, err)
		}
		got, err := io.ReadAll(gr)
		if err != nil || !bytes.Equal(got, blobs[i]) {
			return fmt.Errorf("blob %d: decoded %d bytes, want %d (err %v)", i, len(got), len(blobs[i]), err)
		}
		if sum, want := resp.Header.Get(sumHeader), formatSum(blobSum("gz", keys[i], got)); sum != want {
			return fmt.Errorf("blob %d: %s %q, want %q", i, sumHeader, sum, want)
		}
		return nil
	}

	// Sequential: the first half, one round trip after another.
	for i := 0; i < n/2; i++ {
		if err := put(i); err != nil {
			t.Fatal(err)
		}
		if err := get(i); err != nil {
			t.Fatal(err)
		}
	}
	// Concurrent: the second half's PUTs and GETs interleave with
	// GETs of the first half.
	var wg sync.WaitGroup
	errs := make(chan error, 2*n)
	for i := n / 2; i < n; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			if err := put(i); err != nil {
				errs <- err
				return
			}
			errs <- get(i)
		}(i)
		go func(i int) {
			defer wg.Done()
			errs <- get(i)
		}(i - n/2)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if got := gzipPuts.Load(); got != n {
		t.Errorf("%d gzip PUTs reached the handler, want %d", got, n)
	}
	if st := c.Stats(); st.Stores != n || st.Errors != 0 {
		t.Errorf("client stats: %+v", st)
	}
}
