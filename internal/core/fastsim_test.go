package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/aperr"
	"repro/internal/bitvec"
	"repro/internal/knn"
	"repro/internal/stats"
)

// TestFastEngineMatchesLinear pins the fast engine's configuration sweep to
// the serial oracle over the whole dataset. The dims cover every ScanBlock
// word-count branch (1, 2, 3, 4 and the generic loop); d=7 packs 157
// vectors into 128 codes, so nearly every distance ties and only the
// (Dist, ID) order separates results. Capacities include 1, sizes that do
// not divide n, and one larger than n; k runs from 1 past n. An empty
// dataset answers one nil list per query.
func TestFastEngineMatchesLinear(t *testing.T) {
	rng := stats.NewRNG(909)
	const n = 157
	for _, dim := range []int{7, 64, 100, 128, 192, 256, 320} {
		ds := bitvec.RandomDataset(rng, n, dim)
		queries := make([]bitvec.Vector, 4)
		for i := range queries {
			queries[i] = bitvec.Random(rng, dim)
		}
		for _, capacity := range []int{1, 10, 64, n + 3} {
			fast, err := NewFastEngine(ds, EngineOptions{Capacity: capacity})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, capacity, n, n + 5} {
				got, err := fast.Query(queries, k)
				if err != nil {
					t.Fatalf("dim=%d capacity=%d k=%d: %v", dim, capacity, k, err)
				}
				if len(got) != len(queries) {
					t.Fatalf("dim=%d capacity=%d k=%d: %d result sets, want %d", dim, capacity, k, len(got), len(queries))
				}
				for qi, q := range queries {
					want := knn.Linear(ds, q, k)
					if !slices.Equal(got[qi], want) {
						t.Fatalf("dim=%d capacity=%d k=%d query %d: fast engine diverged from Linear\n got %v\nwant %v",
							dim, capacity, k, qi, got[qi], want)
					}
				}
			}
		}
	}

	empty, err := NewFastEngine(bitvec.NewDataset(64), EngineOptions{Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	got, err := empty.Query([]bitvec.Vector{bitvec.Random(rng, 64), bitvec.Random(rng, 64)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != nil || got[1] != nil {
		t.Errorf("empty dataset: got %v, want two nil lists", got)
	}
}

// cancelAfterCtx reports cancellation from its (live+1)-th Err call on,
// which lands the cancel deterministically at a chosen partition boundary.
type cancelAfterCtx struct {
	context.Context
	live int
}

func (c *cancelAfterCtx) Err() error {
	if c.live > 0 {
		c.live--
		return nil
	}
	return context.Canceled
}

// TestFastEngineCancelMidSweep cancels at every partition boundary of the
// sweep: the engine must return ErrCanceled and no results — never the
// partial top-k of the configurations already scanned.
func TestFastEngineCancelMidSweep(t *testing.T) {
	rng := stats.NewRNG(31)
	ds := bitvec.RandomDataset(rng, 100, 64)
	queries := []bitvec.Vector{bitvec.Random(rng, 64), bitvec.Random(rng, 64)}
	fast, err := NewFastEngine(ds, EngineOptions{Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := ValidateBatch(queries, fast.Layout())
	if err != nil {
		t.Fatal(err)
	}
	parts := fast.Partitions()
	for live := 0; live < parts; live++ {
		t.Run(fmt.Sprintf("after%d", live), func(t *testing.T) {
			ctx := &cancelAfterCtx{Context: context.Background(), live: live}
			got, err := fast.QueryEncoded(ctx, batch, 3)
			if !errors.Is(err, aperr.ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if got != nil {
				t.Errorf("canceled sweep returned results %v", got)
			}
		})
	}
	ctx := &cancelAfterCtx{Context: context.Background(), live: parts}
	if _, err := fast.QueryEncoded(ctx, batch, 3); err != nil {
		t.Errorf("sweep that finishes before the cancel: %v", err)
	}
}
