package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"math/rand"

	"repro/internal/bitvec"
	"repro/internal/cluster"
	"repro/internal/serve"
)

const (
	// setupRounds is how many times a run boots its fleet; setup_s is the
	// median, and the last fleet serves the load.
	setupRounds = 11
	// warmup is the unmeasured load sent before the measured phase, so
	// connections, caches and lazy set-up are in place.
	warmup = time.Second
	// stride is the member stride of the oracle check inside a batch.
	stride = 8
)

// conns is the generator's connection and sender count: the host's CPU
// count, capped at 2, so the generator never offers more parallelism than
// the host has.
var conns = min(2, runtime.NumCPU())

// fleet is the booted server side of a workload.
type fleet struct {
	nodes  []*proc // shard-major: shard s replica r is nodes[s*replicas+r]
	router *proc
}

func (f *fleet) all() []*proc {
	if f.router != nil {
		return append(append([]*proc{}, f.nodes...), f.router)
	}
	return f.nodes
}

// target is the base URL the load is sent to.
func (f *fleet) target() string {
	if f.router != nil {
		return f.router.url()
	}
	return f.nodes[0].url()
}

// bootFleet spawns the workload's processes and returns once every one is
// healthy and, behind a router, a search routes end to end.
func bootFleet(ctx context.Context, sp spec, seed uint64, bin, dir string, hc *http.Client) (*fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	shards, replicas := max(sp.shards, 1), max(sp.replicas, 1)
	f := &fleet{}
	fail := func(err error) (*fleet, error) {
		_ = stopAll(f.all())
		return nil, err
	}
	for s := 0; s < shards; s++ {
		for r := 0; r < replicas; r++ {
			name := fmt.Sprintf("apserve-%d-%d", s, r)
			p, err := spawn(filepath.Join(bin, "apserve"), dir, name,
				sp.apserveArgs(seed, s, r, filepath.Join(dir, name+".data"))...)
			if err != nil {
				return fail(err)
			}
			f.nodes = append(f.nodes, p)
		}
	}
	bootCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	for _, p := range f.nodes {
		if err := p.waitHealthy(bootCtx, hc); err != nil {
			return fail(err)
		}
	}
	if sp.shards == 0 {
		return f, nil
	}
	var topo []string
	for s := 0; s < shards; s++ {
		var reps []string
		for r := 0; r < replicas; r++ {
			reps = append(reps, f.nodes[s*replicas+r].addr)
		}
		topo = append(topo, strings.Join(reps, ","))
	}
	router, err := spawn(filepath.Join(bin, "aprouter"), dir, "aprouter",
		"-shards", strings.Join(topo, ";"), "-hedge", sp.hedge.String())
	if err != nil {
		return fail(err)
	}
	f.router = router
	if err := router.waitHealthy(bootCtx, hc); err != nil {
		return fail(err)
	}
	probe := serve.SearchRequest{Query: strings.Repeat("0", sp.dim), K: sp.k}
	for {
		var r serve.SearchResponse
		err := postJSON(bootCtx, hc, router.url()+"/v1/search", probe, &r)
		if err == nil {
			return f, nil
		}
		if bootCtx.Err() != nil {
			return fail(fmt.Errorf("router not routing: %w", err))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// nodeSnap is one scrape of a node or router.
type nodeSnap struct {
	stats  serve.StatsResponse
	router cluster.StatsResponse
	hists  map[string]*histogram
}

// snapshot is one scrape of the whole fleet plus /proc usage.
type snapshot struct {
	at      time.Time
	nodes   []nodeSnap
	router  nodeSnap
	servers procUsage
	loadgen procUsage
}

// endpoints are the base URLs of a fleet's nodes and router ("" if none).
type endpoints struct {
	nodes  []string
	router string
}

func (f *fleet) endpoints() endpoints {
	ep := endpoints{}
	for _, p := range f.nodes {
		ep.nodes = append(ep.nodes, p.url())
	}
	if f.router != nil {
		ep.router = f.router.url()
	}
	return ep
}

// takeSnapshot scrapes /v1/stats and /metrics of every node and the router,
// and reads /proc usage of the server processes (none when in process) and
// of this process.
func takeSnapshot(ctx context.Context, hc *http.Client, ep endpoints, procs []*proc) (snapshot, error) {
	s := snapshot{at: time.Now()}
	for _, u := range ep.nodes {
		var n nodeSnap
		if err := getJSON(ctx, hc, u+"/v1/stats", &n.stats); err != nil {
			return s, err
		}
		h, err := scrapeMetrics(ctx, hc, u)
		if err != nil {
			return s, err
		}
		n.hists = h
		s.nodes = append(s.nodes, n)
	}
	if ep.router != "" {
		if err := getJSON(ctx, hc, ep.router+"/v1/stats", &s.router.router); err != nil {
			return s, err
		}
		h, err := scrapeMetrics(ctx, hc, ep.router)
		if err != nil {
			return s, err
		}
		s.router.hists = h
	}
	var err error
	if s.servers, err = usageOf(procs); err != nil {
		return s, err
	}
	s.loadgen, err = readUsage(os.Getpid())
	return s, err
}

// outcome is what a measured phase produced, ready for reporting.
type outcome struct {
	attempted, failed int
	wrong             int
	wrongFirst        string
	metrics           map[string]float64
	notes             []string // human-readable lines printed before the result
}

// phase runs the workload's load for d (closed loop) or d's worth of
// scheduled operations (open loop), starting at operation first.
func phase(ctx context.Context, sp spec, c *client, first int, d time.Duration) []sample {
	if sp.rate > 0 {
		count := int(sp.rate * d.Seconds())
		return openLoop(ctx, first, count, time.Duration(float64(time.Second)/sp.rate), conns, c.send)
	}
	return closedLoop(ctx, first, d, sp.clients, c.send)
}

// opCount is how many open-loop operations a run of this length sends.
func (sp spec) opCount(seconds int) int {
	return int(sp.rate * (warmup.Seconds() + float64(seconds)))
}

// runUntraced is the end-to-end run: the real binaries, driven over
// loopback HTTP, with no instrumentation beyond what they already expose.
func runUntraced(ctx context.Context, sp spec, seed uint64, seconds int, bin, work string) (*outcome, error) {
	hc := newHTTPClient(conns)
	admin := newHTTPClient(4)
	src := newOpSource(sp, seed, sp.opCount(seconds))
	var (
		f      *fleet
		setups []float64
	)
	for r := 0; r < setupRounds; r++ {
		dir := filepath.Join(work, fmt.Sprintf("round%d", r))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		if f, err = bootFleet(ctx, sp, seed, bin, dir, admin); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if r < setupRounds-1 {
			if err := stopAll(f.all()); err != nil {
				return nil, err
			}
		}
	}
	defer func() { _ = stopAll(f.all()) }()

	c := newClient(hc, f.target(), src)
	c.phase = "w"
	warm := phase(ctx, sp, c, 0, warmup)
	snap, err := takeSnapshot(ctx, admin, f.endpoints(), f.all())
	if err != nil {
		return nil, err
	}
	// The measured phase is one continuous load cut into windows; each
	// latency metric is the median of its per-window values, so a burst of
	// outside load (CPU steal, a neighbour's memory traffic on a shared host)
	// during a few windows does not move it.
	c.phase = "m"
	before := snap
	d := time.Duration(seconds) * time.Second
	t0 := time.Now()
	measured := phase(ctx, sp, c, len(warm), d)
	if snap, err = takeSnapshot(ctx, admin, f.endpoints(), f.all()); err != nil {
		return nil, err
	}
	rate := float64(len(warm)) / warmup.Seconds()

	out, err := verify(ctx, sp, seed, src, c, admin, f.target(), warm, measured)
	if err != nil {
		return nil, err
	}
	if err := stopAll(f.all()); err != nil {
		return nil, err
	}
	for _, m := range []struct {
		name string
		q    float64
	}{{"latency_p50_ms", 0.5}, {"latency_p90_ms", 0.9}} {
		win := windowFor(m.q, rate, d)
		xs := windowQuantiles(measured, t0, d, win, m.q)
		out.metrics[m.name] = quantile(xs, 0.5)
		out.notes = append(out.notes, fmt.Sprintf("%d windows of %v: %s min %.4g median %.4g max %.4g",
			len(xs), win, m.name, xs[0], out.metrics[m.name], xs[len(xs)-1]))
	}
	// Throughput and CPU time are counted over the whole phase: CPU time
	// leaves out the time a shared host steals, and a window's query count
	// is a small integer.
	queries := 0
	end := t0
	for _, s := range measured {
		if s.err == nil {
			queries += src.get(s.op).queries()
		}
		if s.done.After(end) {
			end = s.done
		}
	}
	out.metrics["queries_per_s"] = float64(queries) / end.Sub(t0).Seconds()
	out.metrics["cpu_ms_per_query"] = ms(snap.servers.cpu-before.servers.cpu) / float64(queries)
	sort.Float64s(setups)
	out.metrics["server_peak_rss_mb"] = float64(snap.servers.hwmKiB) / 1024
	out.metrics["setup_s"] = setups[len(setups)/2]
	out.notes = append(out.notes, clientNotes(sp, measured)...)
	out.notes = append(out.notes, serverNotes(sp, before, snap)...)
	return out, nil
}

// verify checks the answers of a run against the oracle and counts the
// requests it covered: on a static index the measured ones; on a live
// index every request since boot, since each write changes what later
// answers must be, plus the probe set sent after the load.
func verify(ctx context.Context, sp spec, seed uint64, src *opSource, c *client, admin *http.Client, target string, warm, measured []sample) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	v := newVerdict()
	ds := sp.oracleDataset(seed)
	checked := measured
	if sp.live {
		checked = append(append([]sample{}, warm...), measured...)
		m := buildMirror(ds, src, checked, c.answers)
		checkLive(v, m, src, checked, c.answers, sp.k)
		if err := probeLive(ctx, v, admin, target, m, probeQueries(sp, seed), sp.k); err != nil {
			return nil, err
		}
		out.attempted += probeCount
	} else {
		checkStatic(v, ds, src, measured, c.answers, sp.k, stride)
	}
	for _, s := range checked {
		out.attempted++
		if s.err != nil {
			out.failed++
			if out.failed == 1 {
				out.notes = append(out.notes, "first failure: "+s.err.Error())
			}
		}
	}
	out.wrong, out.wrongFirst = len(v.wrong), v.first
	out.failed += out.wrong
	out.notes = append(out.notes, fmt.Sprintf("oracle: %d answers checked, %d wrong", v.checked, len(v.wrong)))
	return out, nil
}

// probeQueries is the fixed probe set of a churn run.
func probeQueries(sp spec, seed uint64) []bitvec.Vector {
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x5eed))
	out := make([]bitvec.Vector, probeCount)
	for i := range out {
		out[i] = randomVector(rng, sp.dim)
	}
	return out
}

// windowFor is the window length for quantile q: whole seconds, long enough
// that at rate requests per second (the warm-up's) a window holds ten
// requests beyond its q-quantile, and no longer than the phase d.
func windowFor(q, rate float64, d time.Duration) time.Duration {
	secs := math.Ceil(10/(1-q)/rate - 1e-9) // 1e-9: 10/(1-0.9) is not exactly 100
	return min(time.Duration(max(secs, 1))*time.Second, d)
}

// windowQuantiles cuts a measured phase of length d that started at t0
// into whole windows of length win and returns each window's q-quantile
// latency; a request belongs to the window it was due in.
func windowQuantiles(samples []sample, t0 time.Time, d, win time.Duration, q float64) []float64 {
	lat := make([][]float64, int(d/win))
	for _, s := range samples {
		w := int(s.due.Sub(t0) / win)
		if s.err == nil && w < len(lat) {
			lat[w] = append(lat[w], ms(s.latency()))
		}
	}
	out := make([]float64, len(lat))
	for w := range lat {
		out[w] = quantile(lat[w], q)
	}
	return out
}

// clientNotes describes the whole measured phase as the client saw it.
func clientNotes(sp spec, samples []sample) []string {
	var lat, late []float64
	for _, s := range samples {
		if s.err == nil {
			lat = append(lat, ms(s.latency()))
			late = append(late, ms(s.late()))
		}
	}
	top := tailQuantile(len(lat))
	return []string{fmt.Sprintf(
		"loadgen: %d answered; whole run p50 %.3f ms p%g %.3f ms (the highest percentile %d samples support); late p99 %.3f ms",
		len(lat), quantile(lat, 0.5), top*100, quantile(lat, top), len(lat), quantile(late, 0.99))}
}

// serverNotes summarizes what the servers' own counters say about the
// measured phase; in this run every node is its own process, so /v1/stats
// and /metrics deltas describe that node alone.
func serverNotes(sp spec, before, after snapshot) []string {
	var notes []string
	for i := range after.nodes {
		b, a := before.nodes[i], after.nodes[i]
		sv := a.stats.Serving
		bs := b.stats.Serving
		h := histDeltas(a.hists, b.hists)
		flushes := sv.Flushes - bs.Flushes
		line := fmt.Sprintf("node %d: requests %d flushes %d queue_wait p50 %.3f ms p99 %.3f ms backend p50 %.3f ms",
			i, sv.Requests-bs.Requests, flushes,
			h["apknn_serve_queue_seconds"].quantile(0.5)*1e3,
			h["apknn_serve_queue_seconds"].quantile(0.99)*1e3,
			h["apknn_serve_backend_seconds"].quantile(0.5)*1e3)
		if sp.live {
			line += fmt.Sprintf(" wal append p50 %.3f ms fsync p50 %.3f ms compactions %d",
				h["apknn_wal_append_seconds"].quantile(0.5)*1e3,
				h["apknn_wal_fsync_seconds"].quantile(0.5)*1e3,
				liveCompactions(a.stats)-liveCompactions(b.stats))
		}
		notes = append(notes, line)
	}
	if len(after.router.hists) > 0 {
		h := histDeltas(after.router.hists, before.router.hists)
		rs, rb := after.router.router.Cluster, before.router.router.Cluster
		notes = append(notes, fmt.Sprintf("router: searches %d shard_calls %d hedges %d leg p50 %.3f ms p99 %.3f ms",
			rs.Searches-rb.Searches, rs.ShardCalls-rb.ShardCalls, rs.Hedges-rb.Hedges,
			h["apknn_cluster_leg_seconds"].quantile(0.5)*1e3, h["apknn_cluster_leg_seconds"].quantile(0.99)*1e3))
	}
	notes = append(notes, fmt.Sprintf("loadgen cpu: %.1f ms per wall second",
		ms(after.loadgen.cpu-before.loadgen.cpu)/after.at.Sub(before.at).Seconds()))
	return notes
}

func liveCompactions(st serve.StatsResponse) int64 {
	if st.Backend.Live == nil {
		return 0
	}
	return st.Backend.Live.Compactions
}
