package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	apknn "repro"
	"repro/internal/bitvec"
	"repro/internal/serve"
)

// opKind is the class of one client operation.
type opKind int

const (
	opSearch opKind = iota // POST /v1/search
	opBatch                // POST /v1/search_batch
	opInsert               // POST /v1/insert
	opDelete               // POST /v1/delete
)

var opPaths = [...]string{"/v1/search", "/v1/search_batch", "/v1/insert", "/v1/delete"}

func (k opKind) String() string { return [...]string{"search", "batch", "insert", "delete"}[k] }

func (k opKind) write() bool { return k == opInsert || k == opDelete }

// op is one client operation with its request body already encoded, so the
// generator spends no time marshalling while it is measuring.
type op struct {
	kind opKind
	vecs []bitvec.Vector // the queries, or the one inserted vector
	id   int             // delete target
	body []byte
}

// queries is how many search queries the operation asks.
func (o op) queries() int {
	switch o.kind {
	case opSearch, opBatch:
		return len(o.vecs)
	}
	return 0
}

// spec describes a workload: the fleet it boots and the traffic it sends.
type spec struct {
	name string
	// rate > 0 makes an open loop at that many operations per second;
	// otherwise clients closed-loop clients send back to back.
	rate    float64
	clients int
	n, dim  int
	k       int
	// batch is the queries per /v1/search_batch request.
	batch int
	// shards × replicas apserve nodes behind one aprouter when shards > 0.
	shards, replicas int
	// hedge is the router's hedge delay.
	hedge time.Duration
	// live serves a mutable durable index (apserve -live -data-dir <dir>
	// -fsync always -compact-threshold liveCompactThreshold); the workload
	// sends writes.
	live bool
	// zipf skews queries over a pool of this many when > 0; otherwise every
	// query is fresh.
	zipf int
}

// specs are the benchmark's workloads, in BENCHMARK.json order.
var specs = []spec{
	{
		name: "point",
		rate: 200,
		n:    1 << 16, dim: 64, k: 10,
		zipf: 4096,
	},
	{
		name:    "batch",
		clients: 2,
		n:       1 << 18, dim: 128, k: 10, batch: 32,
	},
	{
		name: "churn",
		rate: 100,
		n:    1 << 16, dim: 64, k: 10,
		live: true,
	},
	{
		name: "routed",
		rate: 100,
		n:    1 << 15, dim: 64, k: 10,
		shards: 2, replicas: 2,
		hedge: 5 * time.Millisecond,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// datasetSeed is the apserve -seed of shard s: datasets come from the
// benchmark seed, and replicas of one shard share theirs.
func datasetSeed(seed uint64, s int) uint64 { return seed*1000 + uint64(s) + 1 }

// datasetBytes is the packed size of one node's dataset slab.
func (sp spec) datasetBytes() int { return sp.n * bitvec.WordsFor(sp.dim) * 8 }

// mix fractions of the churn workload: the rest of the operations search.
const (
	churnInsertShare = 0.20
	churnDeleteShare = 0.05
)

// opSource yields the workload's operations deterministically from the seed:
// operation i is the same on every run with that seed.
type opSource struct {
	sp   spec
	seed uint64
	ops  []op // the open-loop sequence, generated up front
}

// newOpSource generates the first count operations of an open-loop
// workload; closed-loop operations are generated on demand by index.
func newOpSource(sp spec, seed uint64, count int) *opSource {
	src := &opSource{sp: sp, seed: seed}
	if sp.rate <= 0 {
		return src
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	fresh := func() bitvec.Vector { return randomVector(rng, sp.dim) }
	var pool []bitvec.Vector
	var zipf *rand.Zipf
	if sp.zipf > 0 {
		pool = make([]bitvec.Vector, sp.zipf)
		for i := range pool {
			pool[i] = fresh()
		}
		zipf = rand.NewZipf(rng, 1.1, 1, uint64(sp.zipf-1))
	}
	// Deletes walk a seeded permutation of the seed dataset's IDs, so every
	// delete names a distinct ID that is still live.
	var victims []int
	if sp.live {
		victims = rng.Perm(sp.n)
	}
	src.ops = make([]op, count)
	for i := range src.ops {
		var o op
		switch r := rng.Float64(); {
		case sp.live && r < churnDeleteShare:
			o = op{kind: opDelete, id: victims[0]}
			victims = victims[1:]
		case sp.live && r < churnDeleteShare+churnInsertShare:
			o = op{kind: opInsert, vecs: []bitvec.Vector{fresh()}}
		case zipf != nil:
			o = op{kind: opSearch, vecs: []bitvec.Vector{pool[zipf.Uint64()]}}
		default:
			o = op{kind: opSearch, vecs: []bitvec.Vector{fresh()}}
		}
		src.ops[i] = encode(o, sp.k)
	}
	return src
}

// get returns operation i.
func (s *opSource) get(i int) op {
	if s.sp.rate > 0 {
		return s.ops[i]
	}
	rng := rand.New(rand.NewSource(int64(s.seed*1_000_003) + int64(i)))
	o := op{kind: opBatch, vecs: make([]bitvec.Vector, s.sp.batch)}
	for j := range o.vecs {
		o.vecs[j] = randomVector(rng, s.sp.dim)
	}
	return encode(o, s.sp.k)
}

func randomVector(rng *rand.Rand, dim int) bitvec.Vector {
	words := make([]uint64, bitvec.WordsFor(dim))
	for i := range words {
		words[i] = rng.Uint64()
	}
	return bitvec.FromWords(dim, words)
}

// encode fills in the request body of o.
func encode(o op, k int) op {
	var v interface{}
	switch o.kind {
	case opSearch:
		v = serve.SearchRequest{Query: o.vecs[0].String(), K: k}
	case opBatch:
		qs := make([]string, len(o.vecs))
		for i, q := range o.vecs {
			qs[i] = q.String()
		}
		v = serve.SearchBatchRequest{Queries: qs, K: k}
	case opInsert:
		v = serve.InsertRequest{Vector: o.vecs[0].String()}
	case opDelete:
		v = serve.DeleteRequest{ID: o.id}
	}
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	o.body = body
	return o
}

// apserveArgs are the flags of node (shard s, replica r) in round dir.
func (sp spec) apserveArgs(seed uint64, s, r int, dataDir string) []string {
	args := []string{
		"-seed", strconv.FormatUint(datasetSeed(seed, s), 10),
		"-n", strconv.Itoa(sp.n), "-dim", strconv.Itoa(sp.dim),
	}
	if sp.shards > 0 {
		args = append(args, "-node-id", fmt.Sprintf("shard%d-%c", s, 'a'+r))
	}
	if sp.live {
		args = append(args, "-live", "-data-dir", dataDir, "-fsync", "always",
			"-compact-threshold", strconv.Itoa(liveCompactThreshold))
	}
	return args
}

// liveCompactThreshold is the live workload's -compact-threshold: small
// enough that several compactions and log rotations finish in every run.
const liveCompactThreshold = 128

// oracleDataset is the union of every shard's seed dataset in global-ID
// order: shard s's local ID i is global base(s)+i.
func (sp spec) oracleDataset(seed uint64) *bitvec.Dataset {
	shards := sp.shards
	if shards == 0 {
		shards = 1
	}
	if shards == 1 {
		return apknn.RandomDataset(datasetSeed(seed, 0), sp.n, sp.dim)
	}
	union := bitvec.NewDataset(sp.dim)
	for s := 0; s < shards; s++ {
		ds := apknn.RandomDataset(datasetSeed(seed, s), sp.n, sp.dim)
		for i := 0; i < ds.Len(); i++ {
			union.Append(ds.At(i))
		}
	}
	return union
}
