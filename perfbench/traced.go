package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	apknn "repro"
	"repro/internal/bitvec"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

// span is one timed call recorded by the benchmark's own wrappers around a
// module's public entry points. Spans of one request share its X-Request-ID.
type span struct {
	Kind   string    `json:"kind"` // node, router, leg, backend, write
	Node   int       `json:"node"` // node index; -1 for the router
	ID     string    `json:"id,omitempty"`
	Path   string    `json:"path,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Status int       `json:"status,omitempty"`
	// Queries is a backend call's batch (the flush); kept for attribution
	// and for replaying the same flushes through the lower layers.
	Queries []bitvec.Vector `json:"-"`
	N       int             `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// contains reports whether o lies within s.
func (s span) contains(o span) bool { return !o.Start.Before(s.Start) && !o.End.After(s.End) }

// tracer collects spans in memory while on; they are written out when the
// run ends.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// statusWriter remembers the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// handler wraps a node's or the router's Handler() with a span per request.
func (t *tracer) handler(kind string, node int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sw, r)
		t.add(span{Kind: kind, Node: node, ID: r.Header.Get(obs.RequestIDHeader), Path: r.URL.Path,
			Start: start, End: time.Now(), Status: sw.status})
	})
}

// tracedIndex wraps apknn.Index.Search with a backend span that keeps the
// flush's query vectors.
type tracedIndex struct {
	apknn.Index
	t    *tracer
	node int
}

func (x *tracedIndex) Search(ctx context.Context, qs []apknn.Vector, k int) ([][]apknn.Neighbor, error) {
	if !x.t.on.Load() {
		return x.Index.Search(ctx, qs, k)
	}
	start := time.Now()
	res, err := x.Index.Search(ctx, qs, k)
	x.t.add(span{Kind: "backend", Node: x.node, Start: start, End: time.Now(),
		Queries: append([]apknn.Vector(nil), qs...), N: len(qs)})
	return res, err
}

// tracedLive additionally wraps the live index's Insert and Delete, and
// forwards the sizing probes serve discovers by type assertion.
type tracedLive struct {
	tracedIndex
	live *apknn.LiveIndex
}

func (x *tracedLive) write(f func() error) error {
	if !x.t.on.Load() {
		return f()
	}
	start := time.Now()
	err := f()
	x.t.add(span{Kind: "write", Node: x.node, Start: start, End: time.Now()})
	return err
}

func (x *tracedLive) Insert(ctx context.Context, v apknn.Vector) (id int, err error) {
	err = x.write(func() error { id, err = x.live.Insert(ctx, v); return err })
	return id, err
}

func (x *tracedLive) Delete(ctx context.Context, id int) error {
	return x.write(func() error { return x.live.Delete(ctx, id) })
}

func (x *tracedLive) Len() int    { return x.live.Len() }
func (x *tracedLive) NextID() int { return x.live.NextID() }

// legTripper is the router's HTTP transport with a span per scatter leg,
// ended when the router has read the leg's answer.
type legTripper struct {
	t      *tracer
	base   http.RoundTripper
	nodeOf map[string]int // host:port → node index
}

func (l *legTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	if !l.t.on.Load() || !strings.HasPrefix(r.URL.Path, "/v1/search") {
		return l.base.RoundTrip(r)
	}
	sp := span{Kind: "leg", Node: l.nodeOf[r.URL.Host], ID: r.Header.Get(obs.RequestIDHeader),
		Path: r.URL.Path, Start: time.Now()}
	resp, err := l.base.RoundTrip(r)
	if err != nil {
		sp.End = time.Now()
		l.t.add(sp)
		return nil, err
	}
	sp.Status = resp.StatusCode
	resp.Body = &legBody{ReadCloser: resp.Body, end: func() { sp.End = time.Now(); l.t.add(sp) }}
	return resp, nil
}

type legBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *legBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}

// inNode is one apserve node built in process from the constructors the
// binary uses.
type inNode struct {
	live *apknn.LiveIndex
	srv  *serve.Server
	hs   *http.Server
	url  string
}

// inFleet is the traced run's server side.
type inFleet struct {
	nodes     []*inNode
	router    *cluster.Router
	routerHS  *http.Server
	routerURL string
	done      sync.WaitGroup // the http.Servers' Serve goroutines
	closeOnce sync.Once
	closeErr  error
}

func (f *inFleet) endpoints() endpoints {
	ep := endpoints{router: f.routerURL}
	for _, n := range f.nodes {
		ep.nodes = append(ep.nodes, n.url)
	}
	return ep
}

func (f *inFleet) target() string {
	if f.routerURL != "" {
		return f.routerURL
	}
	return f.nodes[0].url
}

// serveOn serves h on ln until the returned server is shut down.
func (f *inFleet) serveOn(ln net.Listener, h http.Handler) *http.Server {
	hs := &http.Server{Handler: h}
	f.done.Add(1)
	go func() {
		defer f.done.Done()
		_ = hs.Serve(ln)
	}()
	return hs
}

// bootInProcess builds the workload's fleet in this process with the flags'
// values the binaries would use: apserve's defaults plus the workload's
// flags, and aprouter's defaults with the workload's hedge.
func bootInProcess(ctx context.Context, sp spec, seed uint64, t *tracer, dir string) (*inFleet, error) {
	f := &inFleet{}
	shards, replicas := max(sp.shards, 1), max(sp.replicas, 1)
	nodeOf := map[string]int{}
	var topo []string
	for s := 0; s < shards; s++ {
		var reps []string
		for r := 0; r < replicas; r++ {
			i := len(f.nodes)
			n, addr, err := f.bootNode(sp, seed, s, t, i, filepath.Join(dir, fmt.Sprintf("node%d.data", i)))
			if err != nil {
				f.close(ctx)
				return nil, err
			}
			f.nodes = append(f.nodes, n)
			nodeOf[addr] = i
			reps = append(reps, addr)
		}
		topo = append(topo, strings.Join(reps, ","))
	}
	if sp.shards == 0 {
		return f, nil
	}
	m, err := cluster.ParseTopology(strings.Join(topo, ";"))
	if err == nil {
		err = m.ResolveBases(ctx, nil)
	}
	if err != nil {
		f.close(ctx)
		return nil, err
	}
	hc := &http.Client{Transport: &legTripper{t: t, nodeOf: nodeOf,
		base: &http.Transport{MaxIdleConnsPerHost: 32}}}
	router, err := cluster.New(m, cluster.Config{
		HedgeDelay:    sp.hedge,
		ProbeInterval: time.Second,
		DefaultK:      sp.k,
		Dim:           m.Dim,
		Retry:         serve.RetryPolicy{MaxAttempts: 3},
		HTTPClient:    hc,
	})
	if err != nil {
		f.close(ctx)
		return nil, err
	}
	f.router = router
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close(ctx)
		return nil, err
	}
	f.routerHS = f.serveOn(ln, t.handler("router", -1, router.Handler()))
	f.routerURL = "http://" + ln.Addr().String()
	return f, nil
}

func (f *inFleet) bootNode(sp spec, seed uint64, s int, t *tracer, i int, dataDir string) (*inNode, string, error) {
	ds := apknn.RandomDataset(datasetSeed(seed, s), sp.n, sp.dim)
	opts := []apknn.Option{apknn.WithBackend(apknn.Sharded), apknn.WithGeneration(apknn.Gen2)}
	n := &inNode{}
	var (
		idx apknn.Index
		err error
	)
	if sp.live {
		n.live, err = apknn.OpenLive(ds, append(opts,
			apknn.WithCompactThreshold(liveCompactThreshold),
			apknn.WithCompactInterval(30*time.Second),
			apknn.WithDurability(dataDir, apknn.DurabilityOptions{Fsync: apknn.FsyncAlways}))...)
		idx = &tracedLive{tracedIndex: tracedIndex{Index: n.live, t: t, node: i}, live: n.live}
	} else {
		idx, err = apknn.Open(ds, opts...)
		idx = &tracedIndex{Index: idx, t: t, node: i}
	}
	if err != nil {
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if n.live != nil {
			_ = n.live.Close()
		}
		return nil, "", err
	}
	addr := ln.Addr().String()
	n.srv = serve.New(idx, serve.Config{
		MaxBatch:    32,
		BatchWindow: serve.DefaultBatchWindow,
		MaxInFlight: 256,
		DefaultK:    sp.k,
		Dim:         sp.dim,
		NodeID:      addr,
		Addr:        addr,
		Vectors:     ds.Len(),
	})
	n.hs = f.serveOn(ln, t.handler("node", i, n.srv.Handler()))
	n.url = "http://" + addr
	return n, addr, nil
}

// close drains the fleet the way the binaries do on SIGTERM and waits for
// every server goroutine to end. Later calls return the first result.
func (f *inFleet) close(ctx context.Context) error {
	f.closeOnce.Do(func() { f.closeErr = f.drain(ctx) })
	return f.closeErr
}

func (f *inFleet) drain(ctx context.Context) error {
	var errs []error
	if f.routerHS != nil {
		errs = append(errs, f.routerHS.Shutdown(ctx))
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, n := range f.nodes {
		errs = append(errs, n.hs.Shutdown(ctx), n.srv.Close(ctx))
		if n.live != nil {
			errs = append(errs, n.live.Close())
		}
	}
	f.done.Wait()
	return errors.Join(errs...)
}

// runTraced is the per-layer run: the same workload and seed against the
// servers built in process, first untraced (the overhead baseline) and then
// with every wrapper recording.
func runTraced(ctx context.Context, sp spec, seed uint64, seconds int, work string) (*outcome, error) {
	t := &tracer{}
	f, err := bootInProcess(ctx, sp, seed, t, work)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.close(ctx) }()
	hc := newHTTPClient(conns)
	admin := newHTTPClient(4)
	// The untraced baseline and the traced phase split the run's seconds,
	// so a traced run takes as long as an untraced one.
	d := time.Duration(seconds) * time.Second / 2
	src := newOpSource(sp, seed, sp.opCount(seconds))
	c := newClient(hc, f.target(), src)
	c.phase = "w"
	warm := phase(ctx, sp, c, 0, warmup)
	c.phase = "u"
	plain := phase(ctx, sp, c, len(warm), d)

	ep := f.endpoints()
	before, err := takeSnapshot(ctx, admin, ep, nil)
	if err != nil {
		return nil, err
	}
	sampler := startDeltaSampler(f)
	c.phase = "t"
	t.on.Store(true)
	traced := phase(ctx, sp, c, len(warm)+len(plain), d)
	t.on.Store(false)
	deltaSizes := sampler.stop()
	after, err := takeSnapshot(ctx, admin, ep, nil)
	if err != nil {
		return nil, err
	}

	out, err := verify(ctx, sp, seed, src, c, admin, f.target(), append(append([]sample{}, warm...), plain...), traced)
	if err != nil {
		return nil, err
	}
	if err := f.close(ctx); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(work, "spans.jsonl"), t.spans); err != nil {
		return nil, err
	}
	a := &analysis{sp: sp, src: src, spans: t.spans, samples: traced, plain: plain,
		before: before, after: after, deltaSizes: deltaSizes, m: out.metrics}
	out.notes = append(out.notes, a.run()...)
	if err := replay(ctx, sp, seed, work, t.spans, src, traced, c.answers, out.metrics); err != nil {
		return nil, err
	}
	return out, nil
}

// deltaSampler polls the live index's delta size while the traced phase
// runs.
type deltaSampler struct {
	stopCh chan struct{}
	done   chan []float64
}

func startDeltaSampler(f *inFleet) *deltaSampler {
	ds := &deltaSampler{stopCh: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var sizes []float64
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ds.stopCh:
				ds.done <- sizes
				return
			case <-tick.C:
				for _, n := range f.nodes {
					if n.live != nil {
						sizes = append(sizes, float64(n.live.Stats().Live.DeltaSize))
					}
				}
			}
		}
	}()
	return ds
}

func (ds *deltaSampler) stop() []float64 {
	close(ds.stopCh)
	return <-ds.done
}

// writeSpans writes the run's spans as JSON lines.
func writeSpans(path string, spans []span) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(fh)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			fh.Close()
			return err
		}
	}
	return fh.Close()
}
