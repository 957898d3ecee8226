package blowfish

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
)

// End-to-end coverage for EngineOptions.ShardBlock: the knob must change
// only how work is partitioned, never what is answered. On integer count
// histograms every slab accumulation is exact, so sharded and unsharded
// engines must agree bitwise at any block size; streams opened on a sharded
// plan maintain per-slab tables and must stay consistent under concurrent
// Apply/Answer (the -race leg exercises the blocked SAT locking).

// TestEngineShardBlockMatchesUnsharded opens the same policy with sharding
// forced at several block sizes and disabled, and checks plans and streams
// answer bitwise identically on integer data, noise included. The grid case
// shards its summed-area tables; the line case pins that tree strategies
// ignore ShardBlock, including blocks smaller than the query count.
func TestEngineShardBlockMatchesUnsharded(t *testing.T) {
	for _, tc := range []struct {
		name   string
		p      *Policy
		w      *Workload
		blocks []int
	}{
		// 81 cells, far below the automatic threshold.
		{"grid", GridPolicy(9), RandomRangesKd([]int{9, 9}, 50, NewSource(61)), []int{1, 9, 27, 40}},
		{"line", LinePolicy(64), RandomRanges1D(64, 40, NewSource(62)), []int{0, 1, 16}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkShardBlocksMatchUnsharded(t, tc.p, tc.w, tc.blocks)
		})
	}
}

func checkShardBlocksMatchUnsharded(t *testing.T, p *Policy, w *Workload, blocks []int) {
	base, err := Open(p, EngineOptions{ShardBlock: -1})
	if err != nil {
		t.Fatal(err)
	}
	basePlan, err := base.Prepare(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, p.K)
	for i := range x {
		x[i] = float64((i*5)%17 + i%2)
	}
	ctx := context.Background()
	for _, block := range blocks {
		eng, err := Open(p, EngineOptions{ShardBlock: block})
		if err != nil {
			t.Fatalf("ShardBlock=%d: %v", block, err)
		}
		pl, err := eng.Prepare(w, Options{})
		if err != nil {
			t.Fatalf("ShardBlock=%d: prepare: %v", block, err)
		}
		for _, eps := range []float64{0, 0.8} {
			got, err := pl.AnswerWith(ctx, nil, x, eps, NewSource(7))
			if err != nil {
				t.Fatal(err)
			}
			want, err := basePlan.AnswerWith(ctx, nil, x, eps, NewSource(7))
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("ShardBlock=%d eps=%g: answer[%d] = %v, want %v (bitwise)",
						block, eps, i, got[i], want[i])
				}
			}
		}
		// A stream on the sharded plan patches integer deltas (through the
		// blocked per-slab tables on a grid) and must track the unsharded
		// plan exactly.
		st, err := eng.OpenStream(pl, x, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		xs := append([]float64(nil), x...)
		dsrc := NewSource(83)
		for step := 0; step < 30; step++ {
			cell := dsrc.Intn(p.K)
			delta := float64(dsrc.Intn(7) - 3)
			xs[cell] += delta
			if err := st.Apply(Delta{Cells: []int{cell}, Values: []float64{delta}}); err != nil {
				t.Fatal(err)
			}
		}
		got, err := st.AnswerWith(ctx, nil, 0.4, NewSource(11))
		if err != nil {
			t.Fatal(err)
		}
		want, err := basePlan.AnswerWith(ctx, nil, xs, 0.4, NewSource(11))
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("ShardBlock=%d: stream answer[%d] = %v, want %v (bitwise)", block, i, got[i], want[i])
			}
		}
	}
}

// TestStreamConcurrentApplyBlockedSAT races concurrent Apply batches against
// concurrent answers on a stream whose plan was compiled with forced
// sharding, so the maintained state is the blocked per-slab SAT. Every batch
// adds +1 to an entire grid row; a consistent prefix means every full-row
// range query over the same rows reports the same count.
func TestStreamConcurrentApplyBlockedSAT(t *testing.T) {
	const side = 8
	p := GridPolicy(side)
	eng, err := Open(p, EngineOptions{ShardBlock: 2 * side}) // 2-row slabs
	if err != nil {
		t.Fatal(err)
	}
	// One full-row query per grid row: all rows must agree at all times.
	w := rowMarginals(t, side)
	pl, err := eng.Prepare(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.OpenStream(pl, make([]float64, p.K), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	allCells := make([]int, p.K)
	ones := make([]float64, p.K)
	for i := range allCells {
		allCells[i] = i
		ones[i] = 1
	}
	const (
		writers = 4
		batches = 20
		readers = 4
	)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				// Alternate full-domain batches (dense fallback, parallel
				// slab recompute) with single-cell patches (blocked PointAdd).
				if err := st.Apply(Delta{Cells: allCells, Values: ones}); err != nil {
					errs <- err
					return
				}
				// A canceling pair within one row: row sums are invariant,
				// but the patch exercises blocked PointAdd concurrently.
				c1 := b % p.K
				c2 := (c1/side)*side + (c1+1)%side
				if err := st.Apply(Delta{Cells: []int{c1, c2}, Values: []float64{1, -1}}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			src := NewSource(seed)
			for i := 0; i < 30; i++ {
				out, err := st.AnswerWith(ctx, nil, 0, src)
				if err != nil {
					errs <- err
					return
				}
				var total float64
				for _, v := range out {
					total += v
				}
				// Full-domain batches preserve sum ≡ 0 mod side² and the
				// single-cell pairs cancel, so the total is a multiple of
				// the domain size at every consistent prefix.
				if rem := math.Mod(total, float64(p.K)); rem != 0 {
					errs <- errShardInconsistent(total, rem)
					return
				}
			}
		}(int64(300 + r))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	final, err := st.AnswerWith(ctx, nil, 0, NewSource(4))
	if err != nil {
		t.Fatal(err)
	}
	want := float64(writers * batches * side) // each full batch adds `side` to every row sum
	for i, v := range final {
		if v != want {
			t.Fatalf("final row %d = %v, want %v", i, v, want)
		}
	}
}

// rowMarginals builds the workload with one query per grid row, summing that
// entire row.
func rowMarginals(t *testing.T, side int) *Workload {
	t.Helper()
	w, err := Marginals([]int{side, side}, []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func errShardInconsistent(total, rem float64) error {
	return fmt.Errorf("inconsistent sharded answer: total %v leaves remainder %v modulo the domain size", total, rem)
}
