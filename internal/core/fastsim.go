package core

import (
	"context"
	"fmt"

	"repro/internal/aperr"
	"repro/internal/bitvec"
	"repro/internal/knn"
)

// FastEngine is a semantics-equivalent model of Engine: it computes the same
// per-query neighbor lists — including partition boundaries, report-cycle
// encoding and tie behaviour — directly from Hamming distances, without
// cycle-accurate simulation. Property tests in this package verify it
// against the real automata execution; the large Monte Carlo experiments
// (Table VI) and the million-vector workloads run on it.
type FastEngine struct {
	ds       *bitvec.Dataset
	layout   Layout
	capacity int
}

// NewFastEngine mirrors NewEngine's partitioning without building automata.
func NewFastEngine(ds *bitvec.Dataset, opts EngineOptions) (*FastEngine, error) {
	layout, err := ResolveLayout(ds.Dim(), opts.Layout)
	if err != nil {
		return nil, err
	}
	capacity, err := ResolveCapacity(ds.Dim(), opts.Capacity)
	if err != nil {
		return nil, err
	}
	return &FastEngine{ds: ds, layout: layout, capacity: capacity}, nil
}

// Layout returns the stream layout.
func (f *FastEngine) Layout() Layout { return f.layout }

// Partitions returns the number of board configurations the dataset needs.
func (f *FastEngine) Partitions() int {
	return (f.ds.Len() + f.capacity - 1) / f.capacity
}

// ReportCycles returns, for one query, the window-relative cycle at which
// each dataset vector's macro reports — the temporal-sort encoding a real
// board would emit.
func (f *FastEngine) ReportCycles(q bitvec.Vector) []int {
	out := make([]int, f.ds.Len())
	for i := 0; i < f.ds.Len(); i++ {
		ihd := f.ds.Dim() - f.ds.Hamming(i, q)
		out[i] = f.layout.ReportCycle(ihd)
	}
	return out
}

// Query returns the same results Engine.Query produces.
func (f *FastEngine) Query(queries []bitvec.Vector, k int) ([][]knn.Neighbor, error) {
	batch, err := ValidateBatch(queries, f.layout)
	if err != nil {
		return nil, err
	}
	return f.QueryEncoded(context.Background(), batch, k)
}

// QueryEncoded answers a pre-validated batch without re-checking dimensions;
// the symbol stream, if any, is ignored — this engine models the board
// semantics directly from Hamming distances. The sweep keeps the board's
// loop order (§III-C): each configuration's slice of the packed slab is
// loaded once and the whole batch streams over it through the blocked
// kernel, every query accumulating into one bounded heap across the sweep.
// Like the board-backed sweep, cancellation is honored at partition
// boundaries.
func (f *FastEngine) QueryEncoded(ctx context.Context, batch *EncodedBatch, k int) ([][]knn.Neighbor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: got k=%d: %w", k, aperr.ErrBadK)
	}
	queries := batch.Queries()
	results := make([][]knn.Neighbor, len(queries))
	if f.ds.Len() == 0 {
		return results, nil
	}
	heaps := make([]*knn.TopK, len(queries))
	for qi := range heaps {
		heaps[qi] = knn.NewTopK(k)
	}
	words, wpv := f.ds.Words(), f.ds.WordsPerVector()
	for _, r := range PartitionRanges(f.ds.Len(), f.capacity) {
		if err := ctx.Err(); err != nil {
			return nil, aperr.Canceled(err)
		}
		lo, hi := r[0], r[1]
		for qi, q := range queries {
			knn.ScanBlock(heaps[qi], words[lo*wpv:hi*wpv], wpv, q.Words(), lo, hi-lo)
		}
	}
	for qi, t := range heaps {
		results[qi] = t.Neighbors()
	}
	return results, nil
}

// SymbolsStreamed returns the total symbols a board would consume answering
// numQueries queries: one full query stream per partition (§III-C).
func (f *FastEngine) SymbolsStreamed(numQueries int) int {
	return f.Partitions() * numQueries * f.layout.StreamLen()
}

// ReportRecords returns the number of report records a board would emit: one
// per (partition vector, query).
func (f *FastEngine) ReportRecords(numQueries int) int {
	return f.ds.Len() * numQueries
}
