package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/remote"
	"repro/internal/store"
)

// This file holds the wrappers traced passes put around the layers a
// workload calls.  Each one times calls through a public interface of
// the layer (engine.Runner, store.FS, http.Handler, http.RoundTripper)
// and records spans and counters into the pass's probe.

// unitTiming is one unit a timedRunner ran.
type unitTiming struct {
	name       string
	start, end time.Time
	cycles     float64
}

// timedRunner is an engine.Runner that times every unit of the runner
// it wraps.  name labels a unit's span; cycles, when set, reads the
// simulated cycles of a result.
type timedRunner[U, R any] struct {
	inner  engine.Runner[U, R]
	probe  *probe
	parent int64
	name   func(U) string
	cycles func(R) float64

	mu    sync.Mutex
	units []unitTiming
}

// RunUnit implements engine.Runner.
func (r *timedRunner[U, R]) RunUnit(ctx context.Context, u U) (R, error) {
	name := r.name(u)
	id, end := r.probe.begin(name, spanFrom(ctx, r.parent))
	start := time.Now()
	res, err := r.inner.RunUnit(withSpan(ctx, id), u)
	t := unitTiming{name: name, start: start, end: time.Now()}
	end()
	if err == nil && r.cycles != nil {
		t.cycles = r.cycles(res)
	}
	r.mu.Lock()
	r.units = append(r.units, t)
	r.mu.Unlock()
	return res, err
}

// timings returns the units run so far, in start order.
func (r *timedRunner[U, R]) timings() []unitTiming {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]unitTiming(nil), r.units...)
	sort.Slice(out, func(i, j int) bool { return out[i].start.Before(out[j].start) })
	return out
}

// poolStats describes how a pool of workers spent the span from the
// first unit's start to the last unit's end: busyFrac is the share of
// worker time spent inside units, and tail is straggler time — from
// the first moment after the last unit started at which a worker had
// nothing left to do, to the end.
func poolStats(units []unitTiming, workers int) (busyFrac, tail float64) {
	if len(units) == 0 || workers <= 0 {
		return 0, 0
	}
	first, lastStart, lastEnd := units[0].start, units[0].start, units[0].end
	busy := 0.0
	for _, u := range units {
		busy += u.end.Sub(u.start).Seconds()
		if u.start.Before(first) {
			first = u.start
		}
		if u.start.After(lastStart) {
			lastStart = u.start
		}
		if u.end.After(lastEnd) {
			lastEnd = u.end
		}
	}
	wall := lastEnd.Sub(first).Seconds()
	idleFrom := lastEnd
	for _, u := range units {
		if !u.end.Before(lastStart) && u.end.Before(idleFrom) {
			idleFrom = u.end
		}
	}
	return ratio(busy, float64(workers)*wall), lastEnd.Sub(idleFrom).Seconds()
}

// timedFS is a store.FS that times the store's reads and writes.  A
// put runs from the temporary file's creation to its rename (or link)
// into place; a get is one ReadFile.
type timedFS struct {
	store.FS
	probe  *probe
	parent atomic.Int64

	mu   sync.Mutex
	open map[string]*pendingPut
}

type pendingPut struct {
	end   func()
	bytes atomic.Int64
}

func newTimedFS(p *probe, base store.FS) *timedFS {
	return &timedFS{FS: base, probe: p, open: make(map[string]*pendingPut)}
}

// CreateTemp implements store.FS.
func (f *timedFS) CreateTemp(dir, pattern string) (store.File, error) {
	_, end := f.probe.begin("store.put", f.parent.Load())
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		end()
		return nil, err
	}
	pp := &pendingPut{end: end}
	f.mu.Lock()
	f.open[file.Name()] = pp
	f.mu.Unlock()
	return &countedFile{File: file, n: &pp.bytes}, nil
}

// publish closes the put span of the temporary file name.
func (f *timedFS) publish(name string, ok bool) {
	f.mu.Lock()
	pp := f.open[name]
	delete(f.open, name)
	f.mu.Unlock()
	if pp == nil {
		return
	}
	pp.end()
	if ok {
		f.probe.add("store.puts", 1)
		f.probe.add("store.put_bytes", float64(pp.bytes.Load()))
	}
}

// Rename implements store.FS.
func (f *timedFS) Rename(oldpath, newpath string) error {
	err := f.FS.Rename(oldpath, newpath)
	f.publish(oldpath, err == nil)
	return err
}

// Link implements store.FS.
func (f *timedFS) Link(oldpath, newpath string) error {
	err := f.FS.Link(oldpath, newpath)
	f.publish(oldpath, err == nil)
	return err
}

// Remove implements store.FS; removing a temporary file that was
// never published ends its put span unpublished.
func (f *timedFS) Remove(name string) error {
	f.publish(name, false)
	return f.FS.Remove(name)
}

// ReadFile implements store.FS.
func (f *timedFS) ReadFile(name string) ([]byte, error) {
	_, end := f.probe.begin("store.get", f.parent.Load())
	data, err := f.FS.ReadFile(name)
	end()
	f.probe.add("store.gets", 1)
	return data, err
}

type countedFile struct {
	store.File
	n *atomic.Int64
}

func (c *countedFile) Write(p []byte) (int, error) {
	n, err := c.File.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// spanHeader carries the client's span ID to an in-process server, so
// the server-side span is parented on the request that caused it.
const spanHeader = "X-Bench-Span"

// routeClass names the service operation a request is.
func routeClass(r *http.Request) string {
	switch r.URL.Path {
	case remote.SessionPath:
		return "unit"
	case remote.SessionBatchPath:
		return "batch"
	}
	return "other"
}

// serverMeter wraps an fx8d handler.  It adds a fixed delay before
// every request (zero for a normal backend) and, while a probe is
// set, records a span per request, counts responses by class and
// status, and accumulates the time at least one request was in
// flight.
type serverMeter struct {
	inner http.Handler
	delay time.Duration
	label string

	probe atomic.Pointer[probe]

	mu        sync.Mutex
	inflight  int
	busySince time.Time
	busy      time.Duration
}

func (m *serverMeter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p := m.probe.Load()
	if p == nil {
		if m.delay > 0 {
			time.Sleep(m.delay)
		}
		m.inner.ServeHTTP(w, r)
		return
	}
	m.enter()
	defer m.leave()
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	class := routeClass(r)
	_, end := p.begin("service."+class, parent)
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	m.inner.ServeHTTP(sw, r)
	end()
	p.add("service.requests."+m.label+"."+class, 1)
	if sw.status == http.StatusTooManyRequests {
		p.add("service.shed", 1)
	}
}

func (m *serverMeter) enter() {
	m.mu.Lock()
	if m.inflight == 0 {
		m.busySince = time.Now()
	}
	m.inflight++
	m.mu.Unlock()
}

func (m *serverMeter) leave() {
	m.mu.Lock()
	m.inflight--
	if m.inflight == 0 {
		m.busy += time.Since(m.busySince)
	}
	m.mu.Unlock()
}

// trace sets the probe requests record into (nil stops recording)
// and restarts the busy-time accounting.
func (m *serverMeter) trace(p *probe) {
	m.mu.Lock()
	m.busy = 0
	m.mu.Unlock()
	m.probe.Store(p)
}

// busyTime returns the time at least one request was in flight since
// the last call to trace.
func (m *serverMeter) busyTime() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.busy
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

// newClient returns an HTTP client keeping at most one connection per
// backend, so a two-backend phase uses two connections.  With a probe,
// the client is metered: every request gets an http.request span
// (closed when its body is closed) and the connections it dials, the
// requests it sends and the bytes read and written on its connections
// are counted under http.<phase>.  Callers close its idle connections
// when their phase ends.
func newClient(p *probe, phase string, parent func(context.Context) int64) *http.Client {
	dialer := &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
	tr := &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
	if p == nil {
		tr.DialContext = dialer.DialContext
		return &http.Client{Transport: tr}
	}
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := dialer.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		p.add("http.conns."+phase, 1)
		return &countedConn{Conn: c, p: p, phase: phase}, nil
	}
	return &http.Client{Transport: &meteredTransport{inner: tr, p: p, phase: phase, parent: parent}}
}

type meteredTransport struct {
	inner  *http.Transport
	p      *probe
	phase  string
	parent func(context.Context) int64
}

// CloseIdleConnections lets http.Client.CloseIdleConnections reach the
// wrapped transport.
func (t *meteredTransport) CloseIdleConnections() { t.inner.CloseIdleConnections() }

// RoundTrip implements http.RoundTripper.
func (t *meteredTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, end := t.p.begin("http.request", t.parent(req.Context()))
	t.p.add("http.requests."+t.phase, 1)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: end}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

type countedConn struct {
	net.Conn
	p     *probe
	phase string
}

func (c *countedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.p.add("http.resp_bytes."+c.phase, float64(n))
	return n, err
}

func (c *countedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.p.add("http.req_bytes."+c.phase, float64(n))
	return n, err
}

// server is an in-process HTTP server on a loopback port.
type server struct {
	addr string
	srv  *http.Server
	done chan struct{}
}

// startServer serves h on a fresh loopback port.
func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{addr: ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

// close stops the server and waits for its serve loop to return.
func (s *server) close() {
	if s == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.done
}
