package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	apknn "repro"
	"repro/internal/bitvec"
	"repro/internal/knn"
	"repro/internal/serve"
)

// A server that stalls once must charge the stall to every request that
// was due while it lasted, not only to the stalled one: open-loop latency
// counts from the due time, not from when the sender got to the request.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const (
		interval = 10 * time.Millisecond
		stallAt  = 5
		stall    = 200 * time.Millisecond
	)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)-1 == stallAt {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	hc := newHTTPClient(1)
	send := func(ctx context.Context, _, i int) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		return resp.Body.Close()
	}
	samples := openLoop(context.Background(), 0, 40, interval, 1, send)
	if len(samples) != 40 {
		t.Fatalf("%d samples, want 40", len(samples))
	}
	for _, s := range samples {
		if s.err != nil {
			t.Fatal(s.err)
		}
	}
	if got := samples[stallAt].latency(); got < stall {
		t.Errorf("stalled request latency %v, want ≥ %v", got, stall)
	}
	// The next request was due one interval after the stalled one, so it
	// waited out the rest of the stall before it could be sent.
	behind := samples[stallAt+1]
	if want := stall - interval - 20*time.Millisecond; behind.latency() < want || behind.late() < want {
		t.Errorf("request behind the stall: latency %v late %v, want both ≥ %v",
			behind.latency(), behind.late(), want)
	}
	if service := behind.done.Sub(behind.sent); service > stall/2 {
		t.Errorf("request behind the stall took %v at the server; the test server should answer it at once", service)
	}
	// Requests due after the backlog drained are on time again.
	if last := samples[len(samples)-1]; last.latency() > stall/2 {
		t.Errorf("last request latency %v; the backlog should have drained", last.latency())
	}
}

func TestTailQuantileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0.5}, {9, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {1 << 20, 0.999},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The chosen percentile always leaves at least ten samples beyond it.
	for n := 20; n < 20000; n += 37 {
		if q := tailQuantile(n); float64(n)*(1-q) < 10-1e-9 {
			t.Fatalf("tailQuantile(%d) = %v leaves fewer than 10 samples beyond", n, q)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if got := quantile(xs, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := quantile(xs, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := quantile(xs, 1); got != 10 {
		t.Errorf("max = %v, want 10", got)
	}
}

// staticCase is one query against a small dataset with many distance ties.
func staticCase(t *testing.T) (*bitvec.Dataset, *opSource, []knn.Neighbor) {
	t.Helper()
	ds := apknn.RandomDataset(3, 400, 16)
	q := apknn.RandomQueries(4, 1, 16)[0]
	src := &opSource{sp: spec{rate: 1, k: 10}, ops: []op{{kind: opSearch, vecs: []bitvec.Vector{q}}}}
	return ds, src, knn.Linear(ds, q, 10)
}

func toWire(ns []knn.Neighbor) []serve.Neighbor {
	out := make([]serve.Neighbor, len(ns))
	for i, n := range ns {
		out[i] = serve.Neighbor{ID: n.ID, Dist: n.Dist}
	}
	return out
}

func TestOracleRejectsSwappedIDs(t *testing.T) {
	ds, src, want := staticCase(t)
	check := func(got []serve.Neighbor) int {
		v := newVerdict()
		checkStatic(v, ds, src, []sample{{op: 0}}, map[int]answer{0: {neighbors: [][]serve.Neighbor{got}}}, 10, 1)
		if v.checked != 1 {
			t.Fatalf("checked %d answers, want 1", v.checked)
		}
		return len(v.wrong)
	}
	if n := check(toWire(want)); n != 0 {
		t.Fatalf("the oracle's own answer was rejected")
	}
	// Swap the IDs of two neighbors at the same distance: the distances
	// still match, only the tie-break order is wrong.
	i, j := -1, -1
	for a := 0; a+1 < len(want) && i < 0; a++ {
		if want[a].Dist == want[a+1].Dist {
			i, j = a, a+1
		}
	}
	if i < 0 {
		t.Fatal("test dataset has no tie in the top 10")
	}
	got := toWire(want)
	got[i].ID, got[j].ID = got[j].ID, got[i].ID
	if n := check(got); n != 1 {
		t.Errorf("answer with ids %d and %d swapped was accepted", got[i].ID, got[j].ID)
	}
}

func TestLiveCheckRejectsDeletedAndSwapped(t *testing.T) {
	ds, src, want := staticCase(t)
	src.ops = append(src.ops, op{kind: opDelete, id: want[0].ID})
	t0 := time.Now()
	del := sample{op: 1, due: t0, sent: t0, done: t0.Add(time.Millisecond)}
	search := sample{op: 0, due: t0.Add(2 * time.Millisecond), sent: t0.Add(2 * time.Millisecond)}
	answers := map[int]answer{0: {neighbors: [][]serve.Neighbor{toWire(want)}}}
	m := buildMirror(ds, src, []sample{del}, answers)

	v := newVerdict()
	checkLive(v, m, src, []sample{search}, answers, 10)
	if len(v.wrong) != 1 || !strings.Contains(v.first, "after its delete") {
		t.Errorf("search sent after the delete was acknowledged returned the deleted id: %q", v.first)
	}
	exact := m.exact(src.ops[0].vecs[0], 10)
	if exact[0].ID == want[0].ID {
		t.Fatal("mirror oracle still returns the deleted id")
	}
	got := toWire(exact)
	got[0], got[1] = got[1], got[0]
	answers[0] = answer{neighbors: [][]serve.Neighbor{got}}
	v = newVerdict()
	checkLive(v, m, src, []sample{search}, answers, 10)
	if len(v.wrong) != 1 {
		t.Error("out-of-order answer was accepted")
	}
}

// pacedIndex delays every search while slow is set.
type pacedIndex struct {
	apknn.Index
	slow atomic.Bool
}

func (p *pacedIndex) Search(ctx context.Context, qs []apknn.Vector, k int) ([][]apknn.Neighbor, error) {
	if p.slow.Load() {
		time.Sleep(20 * time.Millisecond)
	}
	return p.Index.Search(ctx, qs, k)
}

// Deltas of /v1/stats counters and /metrics histograms must describe only
// the requests between the two scrapes: here five slow searches come before
// the first scrape and three fast ones between the scrapes.
func TestStatsDeltasExcludeEarlierSamples(t *testing.T) {
	ds := apknn.RandomDataset(1, 256, 16)
	idx, err := apknn.Open(ds, apknn.WithBackend(apknn.CPU))
	if err != nil {
		t.Fatal(err)
	}
	paced := &pacedIndex{Index: idx}
	srv := serve.New(paced, serve.Config{Dim: 16, NodeID: "test", Vectors: ds.Len()})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Close(context.Background())
	ctx := context.Background()
	hc := newHTTPClient(2)
	search := func(n int) {
		for i := 0; i < n; i++ {
			var r serve.SearchResponse
			q := apknn.RandomQueries(uint64(i+10), 1, 16)[0].String()
			if err := postJSON(ctx, hc, hs.URL+"/v1/search", serve.SearchRequest{Query: q, K: 3}, &r); err != nil {
				t.Fatal(err)
			}
		}
	}
	ep := endpoints{nodes: []string{hs.URL}}
	paced.slow.Store(true)
	search(5)
	before, err := takeSnapshot(ctx, hc, ep, nil)
	if err != nil {
		t.Fatal(err)
	}
	paced.slow.Store(false)
	search(3)
	after, err := takeSnapshot(ctx, hc, ep, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, a := before.nodes[0], after.nodes[0]
	if d := a.stats.Serving.Requests - b.stats.Serving.Requests; d != 3 {
		t.Errorf("requests delta %d, want 3", d)
	}
	const name = "apknn_serve_backend_seconds"
	d := a.hists[name].minus(b.hists[name])
	if d.count != 3 {
		t.Errorf("backend histogram delta holds %d samples, want 3", d.count)
	}
	if p := d.quantile(0.99); p <= 0 || p >= 0.02 {
		t.Errorf("delta p99 %.4fs: the slow searches before the run leaked in", p)
	}
	if p := a.hists[name].quantile(0.5); p < 0.02 {
		t.Errorf("cumulative p50 %.4fs: expected the slow searches to dominate it", p)
	}
}

// A window holds at least ten requests beyond the quantile it reports.
func TestWindowForHoldsTenBeyond(t *testing.T) {
	d := 20 * time.Second
	for _, c := range []struct {
		q, rate float64
		want    time.Duration
	}{
		{0.9, 200, time.Second}, {0.9, 100, time.Second}, {0.5, 100, time.Second},
		{0.5, 16, 2 * time.Second}, {0.9, 16, 7 * time.Second}, {0.9, 1, d},
	} {
		if got := windowFor(c.q, c.rate, d); got != c.want {
			t.Errorf("windowFor(%v, %v) = %v, want %v", c.q, c.rate, got, c.want)
		}
	}
}
