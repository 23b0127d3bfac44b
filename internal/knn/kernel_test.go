package knn

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/aperr"
	"repro/internal/bitvec"
	"repro/internal/stats"
)

// tieHeavyDataset builds a dataset where most vectors are duplicates of a
// small pool, so nearly every distance ties and the (Dist, ID) tie-break is
// the only thing separating results.
func tieHeavyDataset(rng *stats.RNG, n, dim int) *bitvec.Dataset {
	pool := make([]bitvec.Vector, 4)
	for i := range pool {
		pool[i] = bitvec.Random(rng, dim)
	}
	ds := bitvec.NewDataset(dim)
	for i := 0; i < n; i++ {
		ds.Append(pool[rng.Uint64()%uint64(len(pool))])
	}
	return ds
}

// TestScanMatchesLinear is the kernel-vs-oracle equivalence property the
// acceptance gate runs: over word-aligned and non-word-aligned dims, worker
// counts, block sizes that split vectors mid-range, random and tie-heavy
// datasets, the kernel must return byte-identical (Dist, ID) lists to the
// Linear oracle.
func TestScanMatchesLinear(t *testing.T) {
	rng := stats.NewRNG(4242)
	for _, dim := range []int{32, 64, 128, 192} {
		for _, tieHeavy := range []bool{false, true} {
			// Large enough that 8 requested workers survive the
			// minShardVectors cap and genuinely shard the slab.
			var ds *bitvec.Dataset
			n := 4*minShardVectors + int(rng.Uint64()%1000)
			if tieHeavy {
				ds = tieHeavyDataset(rng, n, dim)
			} else {
				ds = bitvec.RandomDataset(rng, n, dim)
			}
			for _, workers := range []int{1, 2, 8} {
				for _, block := range []int{0, 7, 256} {
					for _, k := range []int{1, 5, n + 10} {
						q := bitvec.Random(rng, dim)
						want := Linear(ds, q, k)
						got, err := Scan(ds, q, k, ScanConfig{Workers: workers, BlockVectors: block})
						if err != nil {
							t.Fatalf("dim=%d workers=%d block=%d k=%d: %v", dim, workers, block, k, err)
						}
						if !equalNeighbors(got, want) {
							t.Fatalf("dim=%d tie=%v workers=%d block=%d k=%d: kernel diverged from Linear\n got %v\nwant %v",
								dim, tieHeavy, workers, block, k, got, want)
						}
					}
				}
			}
		}
	}
}

// TestScanBatchMatchesLinear covers both parallelism axes: batches larger
// than the worker pool (query-parallel) and smaller (data-parallel with
// block reuse), against per-query Linear.
func TestScanBatchMatchesLinear(t *testing.T) {
	rng := stats.NewRNG(77)
	for _, dim := range []int{64, 128, 192} {
		ds := bitvec.RandomDataset(rng, 5000, dim)
		for _, nq := range []int{1, 3, 16} {
			queries := make([]bitvec.Vector, nq)
			for i := range queries {
				queries[i] = bitvec.Random(rng, dim)
			}
			for _, workers := range []int{1, 2, 8} {
				got, err := ScanBatch(context.Background(), ds, queries, 7, ScanConfig{Workers: workers})
				if err != nil {
					t.Fatalf("dim=%d nq=%d workers=%d: %v", dim, nq, workers, err)
				}
				for qi, q := range queries {
					if want := Linear(ds, q, 7); !equalNeighbors(got[qi], want) {
						t.Fatalf("dim=%d nq=%d workers=%d query %d: kernel diverged from Linear", dim, nq, workers, qi)
					}
				}
			}
		}
	}
}

// TestBatchBadK is the process-survival regression: the batch and
// single-query kernel entry points with k <= 0 must return aperr.ErrBadK
// from the calling goroutine — the old pass-through to Linear panicked
// inside a worker goroutine and took the whole process (apserve included)
// down.
func TestBatchBadK(t *testing.T) {
	rng := stats.NewRNG(5)
	ds := bitvec.RandomDataset(rng, 5000, 64)
	queries := []bitvec.Vector{bitvec.Random(rng, 64), bitvec.Random(rng, 64)}
	for _, k := range []int{0, -1, -100} {
		for _, workers := range []int{0, 1, 4} {
			if _, err := ScanBatch(context.Background(), ds, queries, k, ScanConfig{Workers: workers}); !errors.Is(err, aperr.ErrBadK) {
				t.Errorf("ScanBatch(k=%d, workers=%d) err = %v, want ErrBadK", k, workers, err)
			}
		}
		if _, err := Scan(ds, queries[0], k, ScanConfig{}); !errors.Is(err, aperr.ErrBadK) {
			t.Errorf("Scan(k=%d) err = %v, want ErrBadK", k, err)
		}
	}
}

func TestScanDimMismatch(t *testing.T) {
	rng := stats.NewRNG(6)
	ds := bitvec.RandomDataset(rng, 100, 64)
	q32 := bitvec.Random(rng, 32)
	if _, err := Scan(ds, q32, 3, ScanConfig{}); !errors.Is(err, aperr.ErrDimMismatch) {
		t.Errorf("Scan dim mismatch err = %v, want ErrDimMismatch", err)
	}
	queries := []bitvec.Vector{bitvec.Random(rng, 64), q32}
	if _, err := ScanBatch(context.Background(), ds, queries, 3, ScanConfig{}); !errors.Is(err, aperr.ErrDimMismatch) {
		t.Errorf("ScanBatch dim mismatch err = %v, want ErrDimMismatch", err)
	}
}

func TestScanEmptyInputs(t *testing.T) {
	rng := stats.NewRNG(7)
	ds := bitvec.NewDataset(32)
	got, err := Scan(ds, bitvec.Random(rng, 32), 3, ScanConfig{})
	if err != nil || len(got) != 0 {
		t.Errorf("Scan over empty dataset = %v, %v; want empty, nil", got, err)
	}
	out, err := ScanBatch(context.Background(), ds, nil, 3, ScanConfig{})
	if err != nil || len(out) != 0 {
		t.Errorf("ScanBatch with no queries = %v, %v; want empty, nil", out, err)
	}
	full := bitvec.RandomDataset(rng, 10, 32)
	out, err = ScanBatch(context.Background(), full, nil, 3, ScanConfig{Workers: 4})
	if err != nil || len(out) != 0 {
		t.Errorf("ScanBatch no queries over data = %v, %v; want empty, nil", out, err)
	}
}

func TestScanBatchCanceled(t *testing.T) {
	rng := stats.NewRNG(8)
	ds := bitvec.RandomDataset(rng, 5000, 64)
	queries := make([]bitvec.Vector, 4)
	for i := range queries {
		queries[i] = bitvec.Random(rng, 64)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// All three execution paths: serial, query-parallel, data-parallel.
	for _, cfg := range []ScanConfig{{Workers: 1}, {Workers: 2}, {Workers: 16}} {
		if _, err := ScanBatch(ctx, ds, queries, 3, cfg); !errors.Is(err, aperr.ErrCanceled) {
			t.Errorf("ScanBatch(workers=%d) on canceled ctx err = %v, want ErrCanceled", cfg.Workers, err)
		}
	}
}

func TestScanBlockFilteredSkips(t *testing.T) {
	rng := stats.NewRNG(9)
	ds := bitvec.RandomDataset(rng, 200, 96)
	q := bitvec.Random(rng, 96)
	dead := map[int]struct{}{3: {}, 50: {}, 199: {}}
	tk := NewTopK(200)
	ScanBlockFiltered(tk, ds.Words(), ds.WordsPerVector(), q.Words(), 0, ds.Len(),
		func(id int) bool { _, d := dead[id]; return d })
	got := tk.Neighbors()
	if len(got) != 197 {
		t.Fatalf("filtered scan kept %d, want 197", len(got))
	}
	for _, n := range got {
		if _, d := dead[n.ID]; d {
			t.Errorf("skipped ID %d leaked into results", n.ID)
		}
		if want := ds.Hamming(n.ID, q); n.Dist != want {
			t.Errorf("ID %d dist %d, want %d", n.ID, n.Dist, want)
		}
	}
}

// TestTopKAgainstOracle: the accumulator alone, fed in slab order, matches
// the full-sort oracle including ID ties at the cut boundary.
func TestTopKAgainstOracle(t *testing.T) {
	rng := stats.NewRNG(10)
	for trial := 0; trial < 100; trial++ {
		n := int(rng.Uint64()%50) + 1
		k := int(rng.Uint64()%12) + 1
		all := make([]Neighbor, n)
		tk := NewTopK(k)
		for i := 0; i < n; i++ {
			d := int(rng.Uint64() % 5) // heavy ties
			all[i] = Neighbor{ID: i, Dist: d}
			tk.Offer(i, d)
		}
		SortNeighbors(all)
		want := all
		if k < len(want) {
			want = want[:k]
		}
		if got := tk.Neighbors(); !equalNeighbors(got, want) {
			t.Fatalf("trial %d n=%d k=%d: TopK = %v, want %v", trial, n, k, got, want)
		}
	}
}

func TestNewTopKBadKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTopK(0) did not panic")
		}
	}()
	NewTopK(0)
}

// Benchmarks for the bench trajectory: the oracle vs the kernel at the
// acceptance point (n=100k, d=128) and the batch paths. Run with
// go test -bench 'Kernel|LinearOracle' ./internal/knn/
func benchDataset(n, dim int) (*bitvec.Dataset, bitvec.Vector) {
	rng := stats.NewRNG(31)
	return bitvec.RandomDataset(rng, n, dim), bitvec.Random(rng, dim)
}

func BenchmarkLinearOracle100k128(b *testing.B) {
	ds, q := benchDataset(100_000, 128)
	b.SetBytes(int64(ds.Len() * ds.WordsPerVector() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Linear(ds, q, 10)
	}
}

func BenchmarkKernelScan100k128(b *testing.B) {
	ds, q := benchDataset(100_000, 128)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("Workers%d", workers), func(b *testing.B) {
			b.SetBytes(int64(ds.Len() * ds.WordsPerVector() * 8))
			for i := 0; i < b.N; i++ {
				if _, err := Scan(ds, q, 10, ScanConfig{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkKernelBatch100k128(b *testing.B) {
	ds, _ := benchDataset(100_000, 128)
	rng := stats.NewRNG(32)
	queries := make([]bitvec.Vector, 16)
	for i := range queries {
		queries[i] = bitvec.Random(rng, 128)
	}
	b.SetBytes(int64(len(queries) * ds.Len() * ds.WordsPerVector() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScanBatch(context.Background(), ds, queries, 10, ScanConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
