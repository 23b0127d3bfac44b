package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	apknn "repro"
	"repro/internal/ap"
	"repro/internal/bitvec"
	"repro/internal/heat"
	"repro/internal/knn"
	"repro/internal/serve"
	"repro/internal/shard"
)

// replayQueries is how many recorded flush members are replayed through the
// shard engine and the kernel.
const replayQueries = 512

// discard is a ResponseWriter that drops the body, for timing encodes.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(int)             {}

// replay times the lower layers on the traced phase's recorded inputs:
// request bodies through json and bitvec.ParseBits, answers through
// serve.WriteJSON, queries through heat.Tracker.Observe, and the recorded
// flushes through shard.Engine.Query and knn.ScanBatch. It adds the
// streaming-read probe and, on a live workload, LiveIndex.Compact over a
// threshold-sized delta.
func replay(ctx context.Context, sp spec, seed uint64, dir string, spans []span, src *opSource, samples []sample, answers map[int]answer, m map[string]float64) error {
	var reads []op
	var resps []interface{}
	var reqBytes, respBytes []float64
	queries := 0
	for _, s := range samples {
		o := src.get(s.op)
		a, ok := answers[s.op]
		if s.err != nil || !ok || o.kind.write() {
			continue
		}
		reads = append(reads, o)
		queries += len(o.vecs)
		reqBytes = append(reqBytes, float64(len(o.body)))
		respBytes = append(respBytes, float64(a.size))
		if o.kind == opSearch {
			resps = append(resps, serve.SearchResponse{Neighbors: a.neighbors[0], FlushSize: 1})
		} else {
			resps = append(resps, serve.SearchBatchResponse{Neighbors: a.neighbors})
		}
	}
	m["wire.request_bytes_mean"] = mean(reqBytes)
	m["wire.response_bytes_mean"] = mean(respBytes)

	t0 := time.Now()
	for _, o := range reads {
		if err := decodeRequest(o); err != nil {
			return err
		}
	}
	m["wire.decode_us_per_query"] = perQueryUS(time.Since(t0), queries)
	w := &discard{h: http.Header{}}
	t0 = time.Now()
	for _, r := range resps {
		serve.WriteJSON(w, http.StatusOK, r)
	}
	m["wire.encode_us_per_query"] = perQueryUS(time.Since(t0), queries)

	tr := heat.NewTracker(10)
	t0 = time.Now()
	for _, o := range reads {
		for _, q := range o.vecs {
			tr.Observe(q.String())
		}
	}
	m["heat.observe_us_per_query"] = perQueryUS(time.Since(t0), queries)

	if err := replayScan(ctx, sp, seed, spans, m); err != nil {
		return err
	}
	m["live.compact_ms"], m["wal.bytes_per_write"] = 0, 0
	if sp.live {
		d, err := replayCompact(ctx, sp, seed)
		if err != nil {
			return err
		}
		m["live.compact_ms"] = ms(d)
		if m["wal.bytes_per_write"], err = replayWAL(ctx, sp, seed, dir); err != nil {
			return err
		}
	}
	return nil
}

func perQueryUS(d time.Duration, queries int) float64 {
	if queries == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(queries)
}

// decodeRequest is the server's request decode: the JSON body, then every
// query's bit string.
func decodeRequest(o op) error {
	var qs []string
	if o.kind == opSearch {
		var r serve.SearchRequest
		if err := json.Unmarshal(o.body, &r); err != nil {
			return err
		}
		qs = []string{r.Query}
	} else {
		var r serve.SearchBatchRequest
		if err := json.Unmarshal(o.body, &r); err != nil {
			return err
		}
		qs = r.Queries
	}
	for _, q := range qs {
		if _, err := bitvec.ParseBits(q); err != nil {
			return err
		}
	}
	return nil
}

// replayScan replays the first replayQueries members of shard 0's recorded
// flushes, flush by flush, through the engine apserve's default backend
// runs (shard.Engine, 4 boards, fast substrate) and through the blocked
// kernel, over shard 0's dataset.
func replayScan(ctx context.Context, sp spec, seed uint64, spans []span, m map[string]float64) error {
	var flushes [][]bitvec.Vector
	n := 0
	for _, s := range spans {
		if s.Kind == "backend" && s.Node < max(sp.replicas, 1) && n < replayQueries {
			flushes = append(flushes, s.Queries)
			n += len(s.Queries)
		}
	}
	ds := apknn.RandomDataset(datasetSeed(seed, 0), sp.n, sp.dim)
	eng, err := shard.New(ds, shard.Options{Boards: 4, Fast: true, Config: ap.Gen2()})
	if err != nil {
		return err
	}
	reconfigs, symbols := eng.Reconfigs(), eng.SymbolsStreamed()
	t0 := time.Now()
	for _, f := range flushes {
		if _, err := eng.Query(ctx, f, sp.k); err != nil {
			return err
		}
	}
	shardT := time.Since(t0)
	m["ap.reconfigs_per_call"] = ratio(int64(eng.Reconfigs()-reconfigs), int64(len(flushes)))
	m["ap.symbols_per_query"] = ratio(int64(eng.SymbolsStreamed()-symbols), int64(n))
	t0 = time.Now()
	for _, f := range flushes {
		if _, err := knn.ScanBatch(ctx, ds, f, sp.k, knn.ScanConfig{}); err != nil {
			return err
		}
	}
	kernelT := time.Since(t0)
	m["shard.us_per_query"] = perQueryUS(shardT, n)
	m["knn.us_per_query"] = perQueryUS(kernelT, n)
	bytesPerQuery := float64(sp.datasetBytes())
	m["knn.gb_per_s"] = 0
	if kernelT > 0 {
		m["knn.gb_per_s"] = bytesPerQuery * float64(n) / kernelT.Seconds() / 1e9
	}
	m["host.read_gb_per_s"] = streamReadGBps()
	m["knn.bw_fraction"] = m["knn.gb_per_s"] / m["host.read_gb_per_s"]
	m["backend_over_kernel"] = 0
	if m["knn.us_per_query"] > 0 {
		m["backend_over_kernel"] = m["backend.us_per_query"] / m["knn.us_per_query"]
	}
	return nil
}

// streamBytes is the streaming-read probe's buffer: 16× a 2 MiB L2, so
// the probe reads from beyond the private caches.
const streamBytes = 32 << 20

// streamReadGBps is the host's streaming read bandwidth: conns goroutines
// sum disjoint parts of a buffer; the best of several passes, since other
// work on the host only ever slows a pass.
func streamReadGBps() float64 {
	buf := make([]uint64, streamBytes/8)
	for i := range buf {
		buf[i] = uint64(i)
	}
	var rates []float64
	for pass := 0; pass < 10; pass++ {
		var wg sync.WaitGroup
		chunk := len(buf) / conns
		t0 := time.Now()
		for w := 0; w < conns; w++ {
			wg.Add(1)
			go func(part []uint64) {
				defer wg.Done()
				sink.Add(sum(part))
			}(buf[w*chunk : (w+1)*chunk])
		}
		wg.Wait()
		rates = append(rates, float64(streamBytes)/time.Since(t0).Seconds()/1e9)
	}
	return quantile(rates, 1)
}

// sink keeps the probe's sums live so the reads are not optimized away.
var sink atomic.Uint64

func sum(xs []uint64) uint64 {
	var a, b, c, d uint64
	for i := 0; i+4 <= len(xs); i += 4 {
		a += xs[i]
		b += xs[i+1]
		c += xs[i+2]
		d += xs[i+3]
	}
	return a + b + c + d
}

// replayCompact times LiveIndex.Compact over a delta of the compaction
// threshold's size on the workload's seed dataset: the median of three.
func replayCompact(ctx context.Context, sp spec, seed uint64) (time.Duration, error) {
	ds := apknn.RandomDataset(datasetSeed(seed, 0), sp.n, sp.dim)
	rng := rand.New(rand.NewSource(int64(seed)))
	var ds3 []float64
	for i := 0; i < 3; i++ {
		li, err := apknn.OpenLive(ds, apknn.WithBackend(apknn.Sharded), apknn.WithGeneration(apknn.Gen2),
			apknn.WithCompactThreshold(-1), apknn.WithCompactInterval(0))
		if err != nil {
			return 0, err
		}
		for j := 0; j < liveCompactThreshold; j++ {
			if _, err := li.Insert(ctx, randomVector(rng, sp.dim)); err != nil {
				li.Close()
				return 0, err
			}
		}
		t0 := time.Now()
		err = li.Compact(ctx)
		ds3 = append(ds3, float64(time.Since(t0)))
		if cerr := li.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, err
		}
	}
	return time.Duration(quantile(ds3, 0.5)), nil
}

// replayWAL is the write-ahead log's bytes per write: the workload's mix of
// inserts and deletes against a durable live index that never compacts, so
// the log is never rotated under the count.
func replayWAL(ctx context.Context, sp spec, seed uint64, dir string) (float64, error) {
	ds := apknn.RandomDataset(datasetSeed(seed, 0), sp.n, sp.dim)
	li, err := apknn.OpenLive(ds, apknn.WithBackend(apknn.Sharded), apknn.WithGeneration(apknn.Gen2),
		apknn.WithCompactThreshold(-1), apknn.WithCompactInterval(0),
		apknn.WithDurability(filepath.Join(dir, "wal-replay"), apknn.DurabilityOptions{Fsync: apknn.FsyncNever}))
	if err != nil {
		return 0, err
	}
	defer li.Close()
	before := li.Stats().Durability.AppendedBytes
	rng := rand.New(rand.NewSource(int64(seed)))
	const writes = 100
	for i := 0; i < writes; i++ {
		if float64(i%20) < 20*churnDeleteShare/(churnDeleteShare+churnInsertShare) {
			err = li.Delete(ctx, i)
		} else {
			_, err = li.Insert(ctx, randomVector(rng, sp.dim))
		}
		if err != nil {
			return 0, err
		}
	}
	return float64(li.Stats().Durability.AppendedBytes-before) / writes, nil
}
