package main

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/bitvec"
	"repro/internal/knn"
	"repro/internal/serve"
)

// sameNeighbors reports whether the served list equals the oracle's exactly:
// same length, same IDs and distances in the same order, ties included.
func sameNeighbors(got []serve.Neighbor, want []knn.Neighbor) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
			return false
		}
	}
	return true
}

// verdict counts oracle checks.
type verdict struct {
	checked int
	wrong   map[int]bool // operations with at least one wrong answer
	first   string       // description of the first mismatch
}

func newVerdict() *verdict { return &verdict{wrong: map[int]bool{}} }

func (v *verdict) fail(op int, format string, args ...interface{}) {
	if v.first == "" {
		v.first = fmt.Sprintf("op %d: ", op) + fmt.Sprintf(format, args...)
	}
	v.wrong[op] = true
}

// checkStatic compares answers of a static index against knn.Linear over
// the seed dataset. Every answered operation is checked; of a batch, every
// stride-th member (at least one), so the check stays a fixed share of the
// run's work.
func checkStatic(v *verdict, ds *bitvec.Dataset, src *opSource, samples []sample, answers map[int]answer, k, stride int) {
	for _, s := range samples {
		a, ok := answers[s.op]
		if s.err != nil || !ok {
			continue
		}
		o := src.get(s.op)
		if len(a.neighbors) != len(o.vecs) {
			v.fail(s.op, "%d answers for %d queries", len(a.neighbors), len(o.vecs))
			continue
		}
		for j := 0; j < len(o.vecs); j += stride {
			v.checked++
			if want := knn.Linear(ds, o.vecs[j], k); !sameNeighbors(a.neighbors[j], want) {
				v.fail(s.op, "query %d: got %v, oracle %v", j, a.neighbors[j], want)
			}
		}
	}
}

// mirror is the client's copy of a live index: the seed dataset plus every
// acknowledged insert, minus every acknowledged delete, with the time each
// delete was acknowledged.
type mirror struct {
	base     *bitvec.Dataset
	inserted map[int]bitvec.Vector
	deleted  map[int]time.Time
}

func buildMirror(base *bitvec.Dataset, src *opSource, samples []sample, answers map[int]answer) *mirror {
	m := &mirror{base: base, inserted: map[int]bitvec.Vector{}, deleted: map[int]time.Time{}}
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		switch o := src.get(s.op); o.kind {
		case opInsert:
			m.inserted[answers[s.op].id] = o.vecs[0]
		case opDelete:
			m.deleted[o.id] = s.done
		}
	}
	return m
}

func (m *mirror) vector(id int) (bitvec.Vector, bool) {
	if id >= 0 && id < m.base.Len() {
		return m.base.At(id), true
	}
	v, ok := m.inserted[id]
	return v, ok
}

// checkLive checks every search answered during a churn run against the
// mirror: each neighbor must be a vector the client knows, at the distance
// the mirror gives, in (distance, ID) order, and not deleted before the
// search was sent. Which concurrent writes a search saw is not fixed, so
// exact membership is left to the probe set after the load.
func checkLive(v *verdict, m *mirror, src *opSource, samples []sample, answers map[int]answer, k int) {
	for _, s := range samples {
		a, ok := answers[s.op]
		o := src.get(s.op)
		if s.err != nil || !ok || o.kind != opSearch {
			continue
		}
		v.checked++
		got := a.neighbors[0]
		if len(got) != k {
			v.fail(s.op, "%d neighbors, want %d", len(got), k)
		}
		for j, n := range got {
			vec, known := m.vector(n.ID)
			switch {
			case !known:
				v.fail(s.op, "unknown id %d", n.ID)
			case vec.Hamming(o.vecs[0]) != n.Dist:
				v.fail(s.op, "id %d at distance %d, mirror says %d", n.ID, n.Dist, vec.Hamming(o.vecs[0]))
			case j > 0 && !less(got[j-1], n):
				v.fail(s.op, "neighbors %d and %d out of (distance, id) order", j-1, j)
			}
			if at, gone := m.deleted[n.ID]; gone && at.Before(s.sent) {
				v.fail(s.op, "id %d returned after its delete was acknowledged", n.ID)
			}
		}
	}
}

func less(a, b serve.Neighbor) bool { return a.Dist < b.Dist || (a.Dist == b.Dist && a.ID < b.ID) }

// exact is the oracle over the mirror: every live vector's distance, sorted
// by (distance, ID), first k.
func (m *mirror) exact(q bitvec.Vector, k int) []knn.Neighbor {
	all := make([]knn.Neighbor, 0, m.base.Len()+len(m.inserted))
	for id := 0; id < m.base.Len(); id++ {
		if _, gone := m.deleted[id]; !gone {
			all = append(all, knn.Neighbor{ID: id, Dist: m.base.Hamming(id, q)})
		}
	}
	for id, vec := range m.inserted {
		if _, gone := m.deleted[id]; !gone {
			all = append(all, knn.Neighbor{ID: id, Dist: vec.Hamming(q)})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		return all[i].Dist < all[j].Dist || (all[i].Dist == all[j].Dist && all[i].ID < all[j].ID)
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// probeCount is the size of the fixed probe set sent after a churn run.
const probeCount = 16

// probeLive sends the probe set once the load has stopped and compares each
// answer with the oracle over the mirror.
func probeLive(ctx context.Context, v *verdict, hc *http.Client, base string, m *mirror, probes []bitvec.Vector, k int) error {
	for i, q := range probes {
		var r serve.SearchResponse
		if err := postJSON(ctx, hc, base+"/v1/search", serve.SearchRequest{Query: q.String(), K: k}, &r); err != nil {
			return fmt.Errorf("probe %d: %w", i, err)
		}
		v.checked++
		if want := m.exact(q, k); !sameNeighbors(r.Neighbors, want) {
			v.fail(-1-i, "probe %d: got %v, oracle over mirror %v", i, r.Neighbors, want)
		}
	}
	return nil
}
