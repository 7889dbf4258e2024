package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"spca"
	"spca/internal/serve"
)

const (
	// serveConns binary connections each run a closed loop: the protocol
	// carries no request ID, so a connection is one caller awaiting a reply.
	serveConns = 2
	// Requests carry 1 to maxRequestRows rows, cycling through requestPool
	// distinct precomputed requests.
	maxRequestRows = 4
	requestPool    = 64
	// warmupRequests are sent per connection in setup, untimed.
	warmupRequests = 200
	// opTransform is the binary protocol's transform opcode.
	opTransform = 1
	// respHeader is the binary protocol's response header: status, three
	// reserved bytes, the served version (bytes 4:12), rows and cols.
	respHeader = 20
	// A traced run alternates untraced and traced slices of this length, and
	// records a span for every spanEvery-th request of a traced slice.
	traceSlice = 250 * time.Millisecond
	spanEvery  = 64
	// statsEvery is how often a traced run reads Server.Stats.
	statsEvery = 100 * time.Millisecond
)

// request is one precomputed binary-protocol request and the response payload
// the served model must answer it with, version field aside.
type request struct {
	in    *spca.Dense
	frame []byte // length prefix and payload
	want  []byte // response payload
}

// serveState is one setup of the serve-online workload: a registry on a
// scratch directory, a binary-protocol server on loopback, and the clients.
type serveState struct {
	dir     string
	reg     *serve.Registry
	srv     *serve.Server
	ln      net.Listener
	served  chan error // ServeBinary's return
	clients []*client
	reqs    []request
	// modelFile is the fitted model's file; every publish loads a fresh
	// copy, so each Publish persists and warms a model it has not seen.
	modelFile []byte
	model     *spca.Model
	modelErr  float64
}

// newServeState fits the served model with spcad's defaults, publishes it,
// starts the server, precomputes the requests and their answers, dials the
// clients and warms every connection up.
func newServeState(o *options) (_ *serveState, err error) {
	s := o.size
	in, err := spca.NewDataset(spca.DatasetSpec{Kind: spca.Tweets, Rows: s.serveRows, Cols: s.serveCols, Seed: o.seed})
	if err != nil {
		return nil, err
	}
	res, err := spca.Fit(in, spca.Config{Algorithm: spca.LocalPPCA, Components: s.serveD, MaxIter: s.serveIters})
	if err != nil {
		return nil, fmt.Errorf("fitting the served model: %w", err)
	}
	var file bytes.Buffer
	if err := res.Save(&file); err != nil {
		return nil, err
	}
	st := &serveState{modelFile: file.Bytes(), modelErr: res.Err}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if st.model, err = spca.LoadModel(bytes.NewReader(st.modelFile)); err != nil {
		return nil, err
	}
	if st.dir, err = os.MkdirTemp(o.workDir, "registry-"); err != nil {
		return nil, err
	}
	if st.reg, err = serve.NewRegistry(st.dir); err != nil {
		return nil, err
	}
	if _, err = st.reg.Publish(st.model); err != nil {
		return nil, err
	}
	st.srv = serve.NewServer(st.reg, nil)
	if st.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.ServeBinary(st.ln) }()
	if st.reqs, err = buildRequests(in, st.model); err != nil {
		return nil, err
	}
	maxResp := 0
	for _, r := range st.reqs {
		maxResp = max(maxResp, len(r.want))
	}
	versions := int(o.window/s.publishEvery) + 3
	for id := 0; id < serveConns; id++ {
		conn, err := net.Dial("tcp", st.ln.Addr().String())
		if err != nil {
			return nil, err
		}
		c := newClient(id, conn, maxResp, versions)
		st.clients = append(st.clients, c)
		for i := 0; i < warmupRequests; i++ {
			if _, ok, err := c.roundTrip(&st.reqs[i%len(st.reqs)]); !ok {
				return nil, fmt.Errorf("warm-up request %d on connection %d: wrong answer (%v)", i, id, err)
			}
		}
	}
	return st, nil
}

// buildRequests cuts the input's rows into requestPool requests of 1 to
// maxRequestRows dense rows and computes each answer through the model API,
// independently of the server.
func buildRequests(in *spca.Sparse, m *spca.Model) ([]request, error) {
	dims, d := m.Dims()
	reqs := make([]request, requestPool)
	row := 0
	for i := range reqs {
		k := 1 + i%maxRequestRows
		x := &spca.Dense{R: k, C: dims, Data: make([]float64, k*dims)}
		for r := 0; r < k; r++ {
			sv := in.Row(row % in.R)
			for j, col := range sv.Indices {
				x.Data[r*dims+col] = sv.Values[j]
			}
			row++
		}
		y := &spca.Dense{R: k, C: d, Data: make([]float64, k*d)}
		if _, err := m.TransformDenseInto(y, x); err != nil {
			return nil, err
		}
		frame, err := serve.EncodeRequest(nil, opTransform, 0, k, dims, x.Data)
		if err != nil {
			return nil, err
		}
		want := make([]byte, respHeader+8*len(y.Data))
		binary.LittleEndian.PutUint32(want[12:], uint32(k))
		binary.LittleEndian.PutUint32(want[16:], uint32(d))
		for j, v := range y.Data {
			binary.LittleEndian.PutUint64(want[respHeader+8*j:], math.Float64bits(v))
		}
		reqs[i] = request{in: x, frame: frame, want: want}
	}
	return reqs, nil
}

// close stops the server and removes the registry directory.
func (st *serveState) close() error {
	for _, c := range st.clients {
		c.conn.Close()
	}
	var err error
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = st.srv.Shutdown(ctx)
		cancel()
	}
	if st.ln != nil {
		st.ln.Close()
		if e := <-st.served; e != nil && err == nil {
			err = e
		}
	}
	if st.dir != "" {
		os.RemoveAll(st.dir)
	}
	return err
}

// client is one closed-loop binary connection. Its buffers are sized in
// setup, so a round trip allocates nothing.
type client struct {
	id        int
	conn      net.Conn
	br        *bufio.Reader
	lenBuf    [4]byte
	resp      []byte
	rec       *records
	seen      []bool // versions answered with
	attempted int
	failed    int
	err       error
}

func newClient(id int, conn net.Conn, maxResp, versions int) *client {
	return &client{
		id: id, conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		resp: make([]byte, maxResp),
		seen: make([]bool, versions),
	}
}

// records holds what one connection measures in the timed window. A run
// allocates them before its setups, while the heap is still small, so the
// pages no sample reaches stay out of peak_rss_mb.
type records struct {
	// Round-trip nanoseconds of untraced and traced slices.
	lat, latTraced []uint32
	spans          []span
}

// newRecords has room for 40k requests per second, about twice the rate one
// connection reaches. A faster server grows the slices, which costs a few
// allocations in the whole window rather than any lost sample.
func newRecords(window time.Duration, traced bool) *records {
	room := int(window.Seconds()*40000) + 1
	r := &records{lat: make([]uint32, 0, room)}
	if traced {
		r.latTraced = make([]uint32, 0, room)
		r.spans = make([]span, 0, room/spanEvery+1)
	}
	return r
}

// roundTrip sends r and reads the reply. ok reports whether the reply is
// byte-equal to r.want outside the version field; err is an I/O error after
// which the connection is unusable.
func (c *client) roundTrip(r *request) (version uint64, ok bool, err error) {
	if _, err := c.conn.Write(r.frame); err != nil {
		return 0, false, err
	}
	if _, err := io.ReadFull(c.br, c.lenBuf[:]); err != nil {
		return 0, false, err
	}
	n := int(binary.LittleEndian.Uint32(c.lenBuf[:]))
	if n > len(c.resp) {
		return 0, false, errors.New("response larger than any expected answer")
	}
	p := c.resp[:n]
	if _, err := io.ReadFull(c.br, p); err != nil {
		return 0, false, err
	}
	if n != len(r.want) || !bytes.Equal(p[:4], r.want[:4]) || !bytes.Equal(p[12:], r.want[12:]) {
		return 0, false, nil
	}
	return binary.LittleEndian.Uint64(p[4:12]), true, nil
}

func push(xs *[]uint32, d time.Duration) {
	*xs = append(*xs, uint32(min(d, math.MaxUint32)))
}

// loop sends requests until deadline. An answer counts as correct when it
// matches the precomputed payload and names a version the registry has
// published.
func (c *client) loop(st *serveState, start, deadline time.Time, traced bool) {
	for i := c.id; ; i += serveConns {
		t0 := time.Now()
		if !t0.Before(deadline) {
			return
		}
		v, ok, err := c.roundTrip(&st.reqs[i%len(st.reqs)])
		t1 := time.Now()
		c.attempted++
		if !ok || v == 0 || v > st.reg.Latest().Version || v >= uint64(len(c.seen)) {
			c.failed++
			if err != nil {
				c.err = err
				return
			}
			continue
		}
		c.seen[v] = true
		r := c.rec
		if traced && int(t0.Sub(start)/traceSlice)%2 == 1 {
			push(&r.latTraced, t1.Sub(t0))
			if n := i / serveConns; n%spanEvery == 0 {
				r.spans = append(r.spans, span{Op: i, Parent: -1, Name: "bin/transform", Kind: "request", Start: ms(t0.Sub(start)), End: ms(t1.Sub(start))})
			}
		} else {
			push(&r.lat, t1.Sub(t0))
		}
	}
}

// publisher publishes a fresh copy of the model every period until stop.
type publisher struct {
	times     []float64 // Registry.Publish wall times, ms
	spans     []span
	attempted int
	failed    int
	err       error
}

func (p *publisher) run(st *serveState, period time.Duration, start time.Time, stop <-chan struct{}) {
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		if st.reg.Latest().Version+1 >= uint64(len(st.clients[0].seen)) {
			return
		}
		m, err := spca.LoadModel(bytes.NewReader(st.modelFile))
		t0 := time.Now()
		if err == nil {
			_, err = st.reg.Publish(m)
		}
		t1 := time.Now()
		p.attempted++
		if err != nil {
			p.failed++
			p.err = err
			continue
		}
		p.times = append(p.times, ms(t1.Sub(t0)))
		p.spans = append(p.spans, span{Op: p.attempted, Parent: -1, Name: "Registry.Publish", Kind: "publish", Start: ms(t0.Sub(start)), End: ms(t1.Sub(start))})
	}
}

// runServe runs serve-online: two closed-loop binary connections sending
// small transform requests while a publisher swaps in a new model version
// at a fixed rate. An operation is one request round trip.
func runServe(o *options) (out *outcome, err error) {
	s := o.size
	recs := make([]*records, serveConns)
	for i := range recs {
		recs[i] = newRecords(o.window, o.traced)
	}
	var (
		st    *serveState
		setup []float64
	)
	for i := 0; i < s.setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if st, err = newServeState(o); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer func() {
		if cerr := st.close(); cerr != nil && err == nil {
			out, err = nil, fmt.Errorf("shutting the server down: %w", cerr)
		}
	}()
	for _, c := range st.clients {
		c.rec = recs[c.id]
	}
	stall := stallMeter(s.stall)

	var (
		pub        publisher
		statsP50   []float64
		statsP99   []float64
		background sync.WaitGroup
		clients    sync.WaitGroup
	)
	stop := make(chan struct{})
	runtime.GC()
	p0 := readProc()
	start := time.Now()
	deadline := start.Add(o.window)
	background.Add(1)
	go func() {
		defer background.Done()
		pub.run(st, s.publishEvery, start, stop)
	}()
	if o.traced {
		background.Add(1)
		go func() {
			defer background.Done()
			tick := time.NewTicker(statsEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				snap := st.srv.Stats()["bin/transform"]
				statsP50 = append(statsP50, snap.P50ms)
				statsP99 = append(statsP99, snap.P99ms)
			}
		}()
	}
	for _, c := range st.clients {
		clients.Add(1)
		go func(c *client) {
			defer clients.Done()
			c.loop(st, start, deadline, o.traced)
		}(c)
	}
	clients.Wait()
	end := time.Now()
	close(stop)
	background.Wait()
	p1 := readProc()
	wall := end.Sub(start)

	out = &outcome{attempted: pub.attempted, failed: pub.failed}
	answered := 0               // correct answers
	var lat, latTraced []uint32 // ns
	seen := make([]bool, len(st.clients[0].seen))
	log := newSpanLog(start)
	for _, c := range st.clients {
		out.attempted += c.attempted
		out.failed += c.failed
		answered += c.attempted - c.failed
		lat = append(lat, c.rec.lat...)
		latTraced = append(latTraced, c.rec.latTraced...)
		log.spans = append(log.spans, c.rec.spans...)
		for v, ok := range c.seen {
			seen[v] = seen[v] || ok
		}
		if c.err != nil {
			out.note("connection %d failed: %v", c.id, c.err)
		}
	}
	if pub.err != nil {
		out.note("publish failed: %v", pub.err)
	}
	log.spans = append(log.spans, pub.spans...)
	versions := 0
	for _, ok := range seen {
		if ok {
			versions++
		}
	}
	requests := len(lat) + len(latTraced)
	untracedP50 := median(lat) / 1e6
	all := append(lat, latTraced...)
	p50, p90, p99 := quantile(all, 0.5)/1e6, quantile(all, 0.9)/1e6, quantile(all, 0.99)/1e6
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	dims, d := st.model.Dims()
	out.note("input: tweets %dx%d seed %d; served model ppca-local d=%d (%d x %d); %d connections, 1-%d rows per request, publish every %s",
		s.serveRows, s.serveCols, o.seed, s.serveD, dims, d, serveConns, maxRequestRows, s.publishEvery)
	out.note("%d requests timed, %d publishes, %d versions answered with", requests, pub.attempted, versions)
	out.note("%-26s %14.6g ms/s", "host.stall_ms_per_s", stall)
	out.note("%-26s %14.6g ms (reported, not gated)", "p50_ms", p50)
	out.note("%-26s %14.6g ms (reported, not gated)", "p90_ms", p90)
	out.note("%-26s %14.6g ms (reported, not gated)", "p99_ms", p99)
	out.note("%-26s %14.6g 1/s (reported, not gated)", "ops_per_s", perSecond(answered, wall))
	if !o.traced {
		out.note("setup times %.3f s", setup)
		out.values = map[string]float64{
			"setup_s":     median(setup),
			"peak_rss_mb": rss,
			"model_err":   st.modelErr,
		}
		return out, nil
	}

	v := layerDefaults()
	out.values = v
	v["op.p50_ms"] = untracedP50
	v["serve.server_p50_ms"] = median(statsP50)
	v["serve.server_p99_ms"] = median(statsP99)
	v["serve.wire_ms"] = p50 - v["serve.server_p50_ms"]
	v["serve.p90_ms"] = p90
	v["serve.p99_ms"] = p99
	v["serve.publish_ms"] = median(pub.times)
	v["serve.versions_seen"] = float64(versions)
	procMetrics(v, p0, p1, answered, wall)
	v["trace.overhead_pct"] = (median(latTraced)/1e6/untracedP50 - 1) * 100
	v["host.stall_ms_per_s"] = stall
	out.note("overhead: traced-slice p50 over %d requests against untraced-slice p50 over %d", len(latTraced), len(lat))
	src := make([]*spca.Dense, len(st.reqs))
	dst := make([]*spca.Dense, len(st.reqs))
	for i, r := range st.reqs {
		src[i] = r.in
		dst[i] = &spca.Dense{R: r.in.R, C: d, Data: make([]float64, r.in.R*d)}
	}
	v["matrix.transform_us"] = transformProbe(s, st.model, src, dst)
	v["parallel.dispatch_us"], v["parallel.dispatch_allocs"] = parallelProbe(s)
	if err := log.write(o.spansOut); err != nil {
		return nil, err
	}
	out.note("spans: %d written to %s (every %dth request of a traced slice, every publish)", len(log.spans), o.spansOut, spanEvery)
	return out, nil
}
