package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"spca"
	"spca/internal/matrix"
)

// testModel builds a deterministic PPCA-shaped model without running a fit:
// Gaussian components, a Gaussian mean, and a non-zero noise variance so the
// posterior-projection path (the interesting one) is exercised.
func testModel(dims, d int, seed uint64) *spca.Model {
	rng := matrix.NewRNG(seed)
	c := matrix.NewDense(dims, d)
	for i := range c.Data {
		c.Data[i] = rng.NormFloat64()
	}
	mean := make([]float64, dims)
	for i := range mean {
		mean[i] = rng.NormFloat64()
	}
	return &spca.Model{
		Algorithm:     spca.LocalPPCA,
		Components:    c,
		Mean:          mean,
		NoiseVariance: 0.25,
		Seed:          seed,
	}
}

func testRows(rows, cols int, seed uint64) []float64 {
	rng := matrix.NewRNG(seed)
	out := make([]float64, rows*cols)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

func TestRegistryPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Latest() != nil {
		t.Fatal("fresh registry should be empty")
	}
	m1 := testModel(20, 4, 1)
	m2 := testModel(20, 4, 2)
	e1, err := reg.Publish(m1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := reg.Publish(m2)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Version != 1 || e2.Version != 2 {
		t.Fatalf("versions %d, %d; want 1, 2", e1.Version, e2.Version)
	}
	if got := reg.Latest(); got.Version != 2 {
		t.Fatalf("latest is v%d, want v2", got.Version)
	}
	if got := reg.Version(1); got == nil || got.Model != m1 {
		t.Fatal("pinning version 1 should return the first model")
	}

	// Reopen: both generations reload, the persisted bytes round-trip the
	// model bit for bit, and the highest version is live again.
	reg2, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg2.Latest(); got == nil || got.Version != 2 {
		t.Fatalf("reopened latest = %+v, want v2", got)
	}
	if len(reg2.List()) != 2 {
		t.Fatalf("reopened registry has %d entries, want 2", len(reg2.List()))
	}
	var orig, reread bytes.Buffer
	if err := m2.Save(&orig); err != nil {
		t.Fatal(err)
	}
	if err := reg2.Latest().Model.Save(&reread); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig.Bytes(), reread.Bytes()) {
		t.Fatal("reloaded model does not re-serialize bit-identically")
	}

	// A corrupt generation is quarantined on open, not served: renamed
	// aside with its bytes kept. Its version number is never reused, even
	// by a later open that finds it only under the quarantine name.
	garbage := []byte("spcamodel 2\ngarbage\n")
	if err := os.WriteFile(filepath.Join(dir, entryFile(3)), garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	for reopen := 0; reopen < 2; reopen++ {
		reg3, err := NewRegistry(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := reg3.Latest(); got == nil || got.Version != 2 {
			t.Fatalf("reopen %d: latest = %+v, want v2", reopen, got)
		}
		kept, err := os.ReadFile(filepath.Join(dir, entryFile(3)+".quarantined"))
		if err != nil || !bytes.Equal(kept, garbage) {
			t.Fatalf("reopen %d: quarantined v3 = %q, %v; want its bytes kept", reopen, kept, err)
		}
		if _, err := os.Stat(filepath.Join(dir, entryFile(3))); !os.IsNotExist(err) {
			t.Fatalf("reopen %d: corrupt v3 still under its own name (%v)", reopen, err)
		}
		if reopen == 1 {
			if e, err := reg3.Publish(testModel(20, 4, 3)); err != nil || e.Version != 4 {
				t.Fatalf("Publish after the quarantine = %+v, %v; want v4", e, err)
			}
		}
	}
}

// TestRegistrySwapUnderReaders hammers Latest/Version/List from many readers
// while a writer publishes generations, verifying no reader ever observes a
// torn view (an entry whose version and model disagree). Run under -race.
func TestRegistrySwapUnderReaders(t *testing.T) {
	reg, err := NewRegistry("") // in-memory: the race is in the swap, not the disk
	if err != nil {
		t.Fatal(err)
	}
	const generations = 40
	// Each published model encodes its version in Seed, so readers can check
	// entry coherence without extra synchronization.
	models := make([]*spca.Model, generations+1)
	for v := uint64(1); v <= generations; v++ {
		models[v] = testModel(8, 2, v)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if e := reg.Latest(); e != nil {
					if e.Model.Seed != e.Version {
						t.Errorf("torn read: entry v%d holds model seeded %d", e.Version, e.Model.Seed)
						return
					}
				}
				if e := reg.Version(3); e != nil && e.Model.Seed != 3 {
					t.Errorf("pinned v3 holds model seeded %d", e.Model.Seed)
					return
				}
				list := reg.List()
				for i, e := range list {
					if e.Version != uint64(i+1) {
						t.Errorf("list[%d] is v%d", i, e.Version)
						return
					}
				}
			}
		}()
	}
	for v := uint64(1); v <= generations; v++ {
		if _, err := reg.Publish(models[v]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := reg.Latest(); got.Version != generations {
		t.Fatalf("final latest v%d, want v%d", got.Version, generations)
	}
}

func newTestServer(t *testing.T, m *spca.Model) (*Server, *Entry) {
	t.Helper()
	reg, err := NewRegistry("")
	if err != nil {
		t.Fatal(err)
	}
	e, err := reg.Publish(m)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, nil)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, e
}

func TestHTTPTransformMatchesModel(t *testing.T) {
	m := testModel(12, 3, 7)
	srv, e := newTestServer(t, m)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const rows = 5
	flat := testRows(rows, 12, 99)
	y := &matrix.Dense{R: rows, C: 12, Data: flat}
	want, err := m.TransformDense(y)
	if err != nil {
		t.Fatal(err)
	}

	body := map[string]any{"rows": toRows(flat, 12)}
	var resp projectResponse
	postJSON(t, ts.URL+"/v1/transform", body, &resp)
	if resp.Version != e.Version {
		t.Fatalf("served v%d, want v%d", resp.Version, e.Version)
	}
	if len(resp.Rows) != rows || len(resp.Rows[0]) != 3 {
		t.Fatalf("result %dx%d, want %dx3", len(resp.Rows), len(resp.Rows[0]), rows)
	}
	for i, row := range resp.Rows {
		for j, v := range row {
			if v != want.At(i, j) {
				t.Fatalf("transform[%d][%d] = %v, model says %v", i, j, v, want.At(i, j))
			}
		}
	}

	// Round trip: reconstruct the latent rows and check dimensions.
	var rec projectResponse
	postJSON(t, ts.URL+"/v1/reconstruct", map[string]any{"rows": resp.Rows}, &rec)
	if len(rec.Rows) != rows || len(rec.Rows[0]) != 12 {
		t.Fatalf("reconstruct %dx%d, want %dx12", len(rec.Rows), len(rec.Rows[0]), rows)
	}

	// Explained variance: cumulative, in (0, 1].
	var ev varianceResponse
	postJSON(t, ts.URL+"/v1/explained-variance", body, &ev)
	if len(ev.Explained) != 3 {
		t.Fatalf("explained has %d entries, want 3", len(ev.Explained))
	}
	for k := 1; k < len(ev.Explained); k++ {
		if ev.Explained[k] < ev.Explained[k-1] {
			t.Fatalf("explained variance not cumulative: %v", ev.Explained)
		}
	}

	// Wrong width is a client error mentioning the model's expectation.
	r, err := ts.Client().Post(ts.URL+"/v1/transform", "application/json",
		strings.NewReader(`{"rows": [[1, 2, 3]]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != 400 {
		t.Fatalf("bad-width transform returned %d, want 400", r.StatusCode)
	}

	// Introspection endpoints respond.
	for _, path := range []string{"/v1/models", "/v1/stats", "/v1/healthz"} {
		r, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != 200 {
			t.Fatalf("GET %s returned %d", path, r.StatusCode)
		}
	}
	if st := srv.Stats(); st["http/transform"].Requests == 0 {
		t.Fatal("transform counter did not advance")
	}
}

func toRows(flat []float64, cols int) [][]float64 {
	out := make([][]float64, len(flat)/cols)
	for i := range out {
		out[i] = flat[i*cols : (i+1)*cols]
	}
	return out
}

func postJSON(t *testing.T, url string, body, out any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("POST %s: %d %s", url, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryProtocolRoundTrip(t *testing.T) {
	m := testModel(10, 3, 11)
	srv, e := newTestServer(t, m)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeBinary(ln)
	defer ln.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const rows = 4
	flat := testRows(rows, 10, 5)
	want, err := m.TransformDense(&matrix.Dense{R: rows, C: 10, Data: flat})
	if err != nil {
		t.Fatal(err)
	}

	frame, err := EncodeRequest(nil, byte(opTransform), 0, rows, 10, flat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	version, gotRows, gotCols, data, err := readResponse(conn)
	if err != nil {
		t.Fatal(err)
	}
	if version != e.Version || gotRows != rows || gotCols != 3 {
		t.Fatalf("response v%d %dx%d, want v%d %dx3", version, gotRows, gotCols, e.Version, rows)
	}
	for i, v := range data {
		if v != want.Data[i] {
			t.Fatalf("binary transform[%d] = %v, model says %v", i, v, want.Data[i])
		}
	}

	// Pinning an unknown version fails without killing the connection.
	frame, err = EncodeRequest(frame[:0], byte(opTransform), 999, rows, 10, flat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := readResponse(conn); err == nil || !strings.Contains(err.Error(), "unknown model version") {
		t.Fatalf("unknown version error = %v", err)
	}

	// The connection still serves after the error.
	frame, err = EncodeRequest(frame[:0], byte(opTransform), e.Version, rows, 10, flat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := readResponse(conn); err != nil {
		t.Fatal(err)
	}
}

// readResponse reads one length-prefixed response frame from the connection.
func readResponse(conn net.Conn) (version uint64, rows, cols int, data []float64, err error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		return 0, 0, 0, nil, err
	}
	payload := make([]byte, binary.LittleEndian.Uint32(lenBuf[:]))
	if _, err := io.ReadFull(conn, payload); err != nil {
		return 0, 0, 0, nil, err
	}
	return DecodeResponse(payload)
}

// TestServeTransformAllocs pins the binary hot path at zero allocations per
// request: a warm session serving a steady stream of transform frames must
// not allocate in handle, the batcher, or the matrix kernels underneath.
func TestServeTransformAllocs(t *testing.T) {
	m := testModel(32, 4, 13)
	srv, _ := newTestServer(t, m)
	sn := newBinSession(srv)
	const rows = 8
	frame, err := EncodeRequest(nil, byte(opTransform), 0, rows, 32, testRows(rows, 32, 3))
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[4:]
	// Warm up: grow session buffers, batcher scratch, projection cache.
	for i := 0; i < 8; i++ {
		if resp := sn.handle(payload); resp[0] != binStatusOK {
			t.Fatalf("warm-up response status %d: %s", resp[0], resp[binHeaderLen:])
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if resp := sn.handle(payload); resp[0] != binStatusOK {
			t.Fatal("serve failed mid-measurement")
		}
	})
	if avg != 0 {
		t.Fatalf("binary transform path allocates %.1f times per request, want 0", avg)
	}
}

// TestBatcherCoalesces checks that concurrent same-shape requests produce
// the same results as direct model calls (the batch is bit-identical to the
// per-request math because it IS the same kernel over stacked rows).
func TestBatcherCoalesces(t *testing.T) {
	m := testModel(16, 3, 17)
	srv, e := newTestServer(t, m)
	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rows := 1 + c%3
			flat := testRows(rows, 16, uint64(100+c))
			want, err := m.TransformDense(&matrix.Dense{R: rows, C: 16, Data: flat})
			if err != nil {
				errs[c] = err
				return
			}
			req := newRequest()
			req.entry = e
			req.op = opTransform
			req.rows, req.cols = rows, 16
			req.in = flat
			for iter := 0; iter < 50; iter++ {
				if err := srv.bat.do(req); err != nil {
					errs[c] = err
					return
				}
				for i := 0; i < rows*3; i++ {
					if req.out[i] != want.Data[i] {
						errs[c] = fmt.Errorf("client %d iter %d: out[%d] = %v, want %v",
							c, iter, i, req.out[i], want.Data[i])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestGracefulShutdown verifies the drain contract: queued requests finish,
// later submissions are refused.
func TestGracefulShutdown(t *testing.T) {
	m := testModel(8, 2, 19)
	reg, _ := NewRegistry("")
	e, err := reg.Publish(m)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, nil)
	req := newRequest()
	req.entry = e
	req.op = opTransform
	req.rows, req.cols = 1, 8
	req.in = testRows(1, 8, 1)
	if err := srv.bat.do(req); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := srv.bat.do(req); err != ErrClosed {
		t.Fatalf("post-shutdown submit = %v, want ErrClosed", err)
	}
}

// BenchmarkServeTransform measures the single-session binary hot path.
func BenchmarkServeTransform(b *testing.B) {
	m := testModel(64, 8, 23)
	reg, _ := NewRegistry("")
	if _, err := reg.Publish(m); err != nil {
		b.Fatal(err)
	}
	srv := NewServer(reg, nil)
	defer srv.Shutdown(context.Background())
	sn := newBinSession(srv)
	const rows = 16
	frame, err := EncodeRequest(nil, byte(opTransform), 0, rows, 64, testRows(rows, 64, 3))
	if err != nil {
		b.Fatal(err)
	}
	payload := frame[4:]
	for i := 0; i < 4; i++ {
		sn.handle(payload)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := sn.handle(payload); resp[0] != binStatusOK {
			b.Fatal("serve failed")
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
}

// BenchmarkServeLoad is the load generator: concurrent binary-protocol
// clients over real TCP, reporting throughput and tail latency.
func BenchmarkServeLoad(b *testing.B) {
	m := testModel(64, 8, 29)
	reg, _ := NewRegistry("")
	if _, err := reg.Publish(m); err != nil {
		b.Fatal(err)
	}
	srv := NewServer(reg, nil)
	defer srv.Shutdown(context.Background())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go srv.ServeBinary(ln)

	const clients = 8
	const rows = 16
	perClient := b.N/clients + 1
	lat := make([][]time.Duration, clients)
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Error(err)
				return
			}
			defer conn.Close()
			frame, err := EncodeRequest(nil, byte(opTransform), 0, rows, 64, testRows(rows, 64, uint64(c)))
			if err != nil {
				b.Error(err)
				return
			}
			lat[c] = make([]time.Duration, 0, perClient)
			for i := 0; i < perClient; i++ {
				t0 := time.Now()
				if _, err := conn.Write(frame); err != nil {
					b.Error(err)
					return
				}
				if _, _, _, _, err := readResponse(conn); err != nil {
					b.Error(err)
					return
				}
				lat[c] = append(lat[c], time.Since(t0))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()

	var all []time.Duration
	for _, l := range lat {
		all = append(all, l...)
	}
	if len(all) == 0 {
		b.Fatal("no requests completed")
	}
	sortDurations(all)
	b.ReportMetric(float64(len(all))/elapsed.Seconds(), "req/sec")
	b.ReportMetric(float64(all[len(all)/2].Microseconds())/1e3, "p50-ms")
	b.ReportMetric(float64(all[(len(all)*99)/100].Microseconds())/1e3, "p99-ms")
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}
