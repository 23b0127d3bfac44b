package main

import (
	"fmt"
	"time"
)

// analysis turns the traced phase's spans and stats deltas into the
// per-layer metrics and the budget table.
type analysis struct {
	sp         spec
	src        *opSource
	spans      []span
	samples    []sample // traced phase
	plain      []sample // the untraced phase before it, same fleet
	before     snapshot
	after      snapshot
	deltaSizes []float64
	m          map[string]float64
}

// request is one client request with the spans attributed to it.
type request struct {
	s       sample
	o       op
	handler *span // outermost server span: the router's, else the node's
	node    *span // the node handler that answered (behind the router: the slowest shard's winning leg)
	leg     *span // behind the router: that leg
	inner   *span // the backend call or write inside node
	shardT  time.Duration
}

// budgetRows are the budget's rows in blocking-path order.
// Behind the router, the rows from leg.transport to serve.self split the
// slowest shard's leg and are printed nested under cluster.leg.
var budgetRows = []string{"loadgen.late", "cluster.self", "cluster.leg", "leg.transport",
	"serve.queue_wait", "serve.pre", "backend", "live+wal", "serve.self", "unattributed"}

func (a *analysis) run() []string {
	byID := map[string][]*span{}
	var backends, writes []*span
	for i := range a.spans {
		s := &a.spans[i]
		switch s.Kind {
		case "backend":
			backends = append(backends, s)
		case "write":
			writes = append(writes, s)
		default:
			byID[s.ID] = append(byID[s.ID], s)
		}
	}
	claimed := map[*span]bool{}
	var reqs []*request
	for _, smp := range a.samples {
		if smp.err != nil {
			continue
		}
		r := &request{s: smp, o: a.src.get(smp.op)}
		spans := byID[requestID("t", smp.op)]
		for _, s := range spans {
			if s.Kind == "router" {
				r.handler = s
			}
		}
		if r.handler != nil {
			r.node, r.leg, r.shardT = slowestShard(spans, a.sp.replicas)
		} else {
			for _, s := range spans {
				if s.Kind == "node" {
					r.node, r.handler = s, s
				}
			}
		}
		if r.node != nil {
			pool := backends
			if r.o.kind.write() {
				pool = writes
			}
			r.inner = attribute(r.node, r.o, pool, claimed)
		}
		reqs = append(reqs, r)
	}

	rows := map[opKind]map[string][]float64{}
	totals := map[opKind][]float64{}
	var queueWait, selfT, unattributed, late, legs []float64
	for _, r := range reqs {
		if r.handler == nil || r.node == nil || r.inner == nil {
			continue
		}
		k := r.o.kind
		if k == opDelete {
			k = opInsert
		}
		if rows[k] == nil {
			rows[k] = map[string][]float64{}
		}
		row := rows[k]
		total := r.s.latency()
		add := func(name string, d time.Duration) { row[name] = append(row[name], ms(d)) }
		add("loadgen.late", r.s.late())
		if r.leg != nil {
			add("cluster.self", r.handler.dur()-r.shardT)
			add("cluster.leg", r.shardT)
			add("leg.transport", r.shardT-r.node.dur())
		}
		pre := r.inner.Start.Sub(r.node.Start)
		post := r.node.End.Sub(r.inner.End)
		if k.write() {
			// A write goes straight to the index: what precedes the call is
			// decode and admission, not a queue.
			add("serve.pre", pre)
			add("live+wal", r.inner.dur())
		} else {
			add("serve.queue_wait", pre)
			add("backend", r.inner.dur())
			queueWait = append(queueWait, ms(pre))
		}
		add("serve.self", post)
		un := total - r.s.late() - r.handler.dur()
		add("unattributed", un)
		totals[k] = append(totals[k], ms(total))
		selfT = append(selfT, ms(post))
		unattributed = append(unattributed, ms(un))
		late = append(late, ms(r.s.late()))
	}
	attempts := 0
	for _, s := range a.spans {
		if s.Kind != "leg" {
			continue
		}
		attempts++
		if s.Status == 200 {
			legs = append(legs, ms(s.dur()))
		}
	}

	var notes []string
	for _, k := range []opKind{opSearch, opBatch, opInsert} {
		if rows[k] == nil {
			continue
		}
		class := k.String()
		if k == opInsert {
			class = "write"
		}
		notes = append(notes, budgetTable(class, rows[k], totals[k])...)
	}

	m := a.m
	m["serve.queue_wait_ms_p50"] = quantile(queueWait, 0.5)
	m["serve.queue_wait_ms_p99"] = quantile(queueWait, 0.99)
	m["serve.self_ms_p50"] = quantile(selfT, 0.5)
	m["loadgen.unattributed_ms_p50"] = quantile(unattributed, 0.5)
	m["loadgen.late_ms_p99"] = quantile(late, 0.99)
	m["cluster.leg_ms_p50"] = quantile(legs, 0.5)
	m["cluster.leg_ms_p99"] = quantile(legs, 0.99)
	var clusterSelf []float64
	routed := 0
	for _, r := range reqs {
		if r.leg != nil {
			clusterSelf = append(clusterSelf, ms(r.handler.dur()-r.shardT))
		}
		if r.handler != nil && r.handler.Kind == "router" {
			routed++
		}
	}
	m["cluster.self_ms_p50"] = quantile(clusterSelf, 0.5)
	m["cluster.legs_per_search"] = 0
	if routed > 0 {
		m["cluster.legs_per_search"] = float64(attempts) / float64(routed)
	}
	rb, ra := a.before.router.router.Cluster, a.after.router.router.Cluster
	m["cluster.hedge_win_ratio"] = ratio(ra.HedgeWins-rb.HedgeWins, ra.Hedges-rb.Hedges)
	m["cluster.retries"] = float64(ra.Retries - rb.Retries)

	var bdur []float64
	var bsum time.Duration
	bq := 0
	for _, b := range backends {
		bdur = append(bdur, ms(b.dur()))
		bsum += b.dur()
		bq += b.N
	}
	m["backend.ms_per_call_p50"] = quantile(bdur, 0.5)
	m["backend.ms_per_call_p99"] = quantile(bdur, 0.99)
	m["backend.us_per_query"] = 0
	if bq > 0 {
		m["backend.us_per_query"] = float64(bsum.Microseconds()) / float64(bq)
	}
	a.serverCounters()
	a.clientClasses()
	return notes
}

// slowestShard finds, among a routed request's legs, each shard's answer
// time (first leg start to its earliest successful answer) and returns the
// slowest shard's winning leg, the node span that served it, and that time.
func slowestShard(spans []*span, replicas int) (node, leg *span, t time.Duration) {
	type shardT struct {
		start time.Time
		win   *span
	}
	shards := map[int]*shardT{}
	for _, s := range spans {
		if s.Kind != "leg" {
			continue
		}
		sh := s.Node / max(replicas, 1)
		st := shards[sh]
		if st == nil {
			st = &shardT{start: s.Start}
			shards[sh] = st
		}
		if s.Start.Before(st.start) {
			st.start = s.Start
		}
		if s.Status == 200 && (st.win == nil || s.End.Before(st.win.End)) {
			st.win = s
		}
	}
	for _, st := range shards {
		if st.win == nil {
			continue
		}
		if d := st.win.End.Sub(st.start); d > t {
			t, leg = d, st.win
		}
	}
	if leg == nil {
		return nil, nil, 0
	}
	for _, s := range spans {
		if s.Kind == "node" && s.Node == leg.Node && leg.contains(*s) {
			return s, leg, t
		}
	}
	return nil, nil, 0
}

// attribute finds the backend call or write that served a request: on the
// same node, inside the node's handler span, and — for a search — holding
// the request's query vector. A call serves each of its members once.
func attribute(node *span, o op, pool []*span, claimed map[*span]bool) *span {
	for _, s := range pool {
		if s.Node != node.Node || !node.contains(*s) {
			continue
		}
		switch o.kind {
		case opInsert, opDelete:
			if !claimed[s] {
				claimed[s] = true
				return s
			}
		case opBatch:
			if s.N == len(o.vecs) && !claimed[s] {
				claimed[s] = true
				return s
			}
		case opSearch:
			for _, q := range s.Queries {
				if q.Equal(o.vecs[0]) {
					return s
				}
			}
		}
	}
	return nil
}

// budgetTable prints one class's budget: each row's p50 and p99 per request
// and its share of the summed client time.
func budgetTable(class string, rows map[string][]float64, totals []float64) []string {
	var sumTotal float64
	for _, x := range totals {
		sumTotal += x
	}
	lines := []string{fmt.Sprintf("budget %s (%d requests, client p50 %.3f ms p99 %.3f ms)",
		class, len(totals), quantile(append([]float64(nil), totals...), 0.5), quantile(append([]float64(nil), totals...), 0.99)),
		fmt.Sprintf("  %-18s %10s %10s %8s", "layer", "p50 ms", "p99 ms", "share")}
	for _, name := range budgetRows {
		xs, ok := rows[name]
		if !ok {
			continue
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		label := name
		if _, routed := rows["cluster.leg"]; routed && nestedUnderLeg(name) {
			label = "  " + name
		}
		lines = append(lines, fmt.Sprintf("  %-18s %10.3f %10.3f %7.1f%%",
			label, quantile(xs, 0.5), quantile(xs, 0.99), 100*sum/sumTotal))
	}
	return lines
}

func nestedUnderLeg(row string) bool {
	switch row {
	case "leg.transport", "serve.queue_wait", "backend", "serve.self":
		return true
	}
	return false
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// serverCounters derives the counter-based per-layer metrics from the
// /v1/stats and /metrics deltas of the traced phase, summed over nodes.
func (a *analysis) serverCounters() {
	var d struct {
		requests, flushes, deadline, rejected, expired        int64
		queries, batches, reconfigs, symbols, modeledNS       int64
		inserts, deletes, compactions, appends, bytes, fsyncs int64
	}
	for i := range a.after.nodes {
		b, x := a.before.nodes[i].stats, a.after.nodes[i].stats
		d.requests += x.Serving.Requests - b.Serving.Requests
		d.flushes += x.Serving.Flushes - b.Serving.Flushes
		d.deadline += x.Serving.FlushesByDeadline - b.Serving.FlushesByDeadline
		d.rejected += x.Serving.Rejected - b.Serving.Rejected
		d.expired += x.Serving.Expired - b.Serving.Expired
		d.queries += x.Backend.Queries - b.Backend.Queries
		d.modeledNS += x.ModeledTimeNS - b.ModeledTimeNS
		d.compactions += liveCompactions(x) - liveCompactions(b)
	}
	m := a.m
	// Every node models its own AP time. The replicas of a shard split that
	// shard's work, so a shard's time is their sum, and the busiest shard
	// bounds the fleet's modeled throughput: the paper's meter, never mixed
	// with host time.
	replicas := max(a.sp.replicas, 1)
	shardNS := make([]int64, len(a.after.nodes)/replicas)
	for i := range a.after.nodes {
		shardNS[i/replicas] += a.after.nodes[i].stats.ModeledTimeNS - a.before.nodes[i].stats.ModeledTimeNS
	}
	var busiest int64
	for _, ns := range shardNS {
		busiest = max(busiest, ns)
	}
	queries := 0
	for _, s := range a.samples {
		if s.err == nil {
			queries += a.src.get(s.op).queries()
		}
	}
	m["modeled_qps"] = ratio(int64(queries), busiest) * 1e9
	m["serve.flush_size_mean"] = ratio(d.requests, d.flushes)
	m["serve.deadline_flush_ratio"] = ratio(d.deadline, d.flushes)
	m["serve.rejected"] = float64(d.rejected)
	m["serve.expired"] = float64(d.expired)
	m["backend.modeled_us_per_query"] = ratio(d.modeledNS, d.queries) / 1e3
	m["live.compactions"] = float64(d.compactions)
	m["live.delta_size_mean"] = mean(a.deltaSizes)
	// The WAL and delta-scan histograms are process-global; only the churn
	// workload has a live node, and it has exactly one, so they are its own.
	// The WAL's own byte and fsync counters restart with every log rotation,
	// so fsyncs are counted from the histogram and bytes by replayWAL.
	h := map[string]*histogram{}
	if a.sp.live {
		h = histDeltas(a.after.nodes[0].hists, a.before.nodes[0].hists)
	}
	writes := 0
	for _, s := range a.samples {
		if s.err == nil && a.src.get(s.op).kind.write() {
			writes++
		}
	}
	m["wal.fsyncs_per_write"] = 0
	if writes > 0 {
		m["wal.fsyncs_per_write"] = float64(h["apknn_wal_fsync_seconds"].count) / float64(writes)
	}
	m["wal.append_us_p50"] = h["apknn_wal_append_seconds"].quantile(0.5) * 1e6
	m["wal.append_us_p99"] = h["apknn_wal_append_seconds"].quantile(0.99) * 1e6
	m["wal.fsync_us_p50"] = h["apknn_wal_fsync_seconds"].quantile(0.5) * 1e6
	m["wal.fsync_us_p99"] = h["apknn_wal_fsync_seconds"].quantile(0.99) * 1e6
	m["live.delta_scan_us_p50"] = h["apknn_live_delta_scan_seconds"].quantile(0.5) * 1e6
}

// clientClasses reports the client-observed latency of each request class
// from the untraced phase, and the traced/untraced ratio of the workload's
// main class.
func (a *analysis) clientClasses() {
	lat := func(samples []sample, kinds ...opKind) []float64 {
		var xs []float64
		for _, s := range samples {
			if s.err != nil {
				continue
			}
			k := a.src.get(s.op).kind
			for _, want := range kinds {
				if k == want {
					xs = append(xs, ms(s.latency()))
				}
			}
		}
		return xs
	}
	m := a.m
	search := lat(a.plain, opSearch)
	batch := lat(a.plain, opBatch)
	writes := lat(a.plain, opInsert, opDelete)
	m["search_p50_ms"] = quantile(search, 0.5)
	m["search_p99_ms"] = quantile(search, 0.99)
	m["batch_p50_ms"] = quantile(batch, 0.5)
	m["batch_p90_ms"] = quantile(batch, 0.9)
	m["write_p50_ms"] = quantile(writes, 0.5)
	m["write_p99_ms"] = quantile(writes, 0.99)
	main := opSearch
	if a.sp.rate <= 0 {
		main = opBatch
	}
	base := quantile(lat(a.plain, main), 0.5)
	m["trace.overhead_ratio"] = quantile(lat(a.samples, main), 0.5) / base

	// Repeat share: searched queries already searched earlier in the run.
	seen := map[string]bool{}
	total, repeats := 0, 0
	for _, s := range append(append([]sample(nil), a.plain...), a.samples...) {
		o := a.src.get(s.op)
		if o.kind.write() {
			continue
		}
		for _, q := range o.vecs {
			key := q.String()
			total++
			if seen[key] {
				repeats++
			}
			seen[key] = true
		}
	}
	m["heat.repeat_share"] = ratio(int64(repeats), int64(total))
}
