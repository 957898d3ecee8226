package strategy

import (
	"math"
	"reflect"
	"testing"

	"github.com/privacylab/blowfish/internal/mech"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/sparse"
	"github.com/privacylab/blowfish/internal/workload"
)

// The sharding equivalence suite. On integer count histograms every
// summed-area accumulation and partial reduce is exact, so a sharded compile
// must answer bitwise identically to the monolithic path at ANY block size —
// the noise pass draws serially from the same Source either way. Float
// histograms reassociate the slab reduce and are held to 1e-9 (the same
// bound the shard bench asserts in-loop).

// countHistogram is an integer-valued histogram (all sums exact in float64).
func countHistogram(k int) []float64 {
	x := make([]float64, k)
	for i := range x {
		x[i] = float64((i*7)%11 + i%3)
	}
	return x
}

func bitwiseEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: lengths differ: %d vs %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: answer[%d] = %v, want %v (bitwise)", label, i, got[i], want[i])
		}
	}
}

// TestGridShardedMatchesUnsharded compiles every grid strategy sharded at
// several block sizes — including block size 1 and a non-divisible slab
// height — and checks answers against the monolithic compile: bitwise on
// integer counts, 1e-9 on float data, with and without noise.
func TestGridShardedMatchesUnsharded(t *testing.T) {
	dims := []int{13, 5} // 13 rows: no tested slab height divides it
	k := 13 * 5
	src := noise.NewSource(41)
	w := workload.RandomRangesKd(dims, 60, src)
	compiles := []struct {
		name  string
		build func(cfg Config) (*Prepared, error)
	}{
		{"grid", func(cfg Config) (*Prepared, error) {
			return GridPolicyRangeKd(dims, mech.PriveletKind, cfg).Prepare(w)
		}},
		{"thetagrid", func(cfg Config) (*Prepared, error) {
			return ThetaGridRange2D(dims, 2, cfg).Prepare(w)
		}},
	}
	for _, tc := range compiles {
		mono, err := tc.build(Config{MaxBlockCells: -1})
		if err != nil {
			t.Fatalf("%s: monolithic compile: %v", tc.name, err)
		}
		for _, blockCells := range []int{1, 10, 20, k} {
			shard, err := tc.build(Config{MaxBlockCells: blockCells})
			if err != nil {
				t.Fatalf("%s/%d: sharded compile: %v", tc.name, blockCells, err)
			}
			// A cap below the domain must expose the blocked operator;
			// a cap covering it collapses back to the monolithic shape.
			_, blocked := shard.Operator().(*sparse.BlockedOperator)
			if wantBlocked := blockCells < k; blocked != wantBlocked {
				t.Fatalf("%s/%d: blocked operator = %v, want %v", tc.name, blockCells, blocked, wantBlocked)
			}
			xi := countHistogram(k)
			for _, eps := range []float64{0, 0.5} {
				got, err := shard.Answer(xi, eps, noise.NewSource(5))
				if err != nil {
					t.Fatal(err)
				}
				want, err := mono.Answer(xi, eps, noise.NewSource(5))
				if err != nil {
					t.Fatal(err)
				}
				bitwiseEqual(t, tc.name, got, want)
			}
			// Float data: the slab reduce reassociates, so 1e-9.
			xf := make([]float64, k)
			s := noise.NewSource(6)
			for i := range xf {
				xf[i] = s.Uniform()*9 - 4.5
			}
			got, err := shard.Answer(xf, 0, noise.NewSource(5))
			if err != nil {
				t.Fatal(err)
			}
			want, err := mono.Answer(xf, 0, noise.NewSource(5))
			if err != nil {
				t.Fatal(err)
			}
			if d := answersMaxDiff(t, got, want); d > 1e-9 {
				t.Fatalf("%s/%d: float answers differ by %g", tc.name, blockCells, d)
			}
		}
	}
}

// TestAutoShardThreshold pins the MaxBlockCells = 0 contract: domains at or
// below sparse.DefaultShardCells keep the exact pre-sharding operator, so
// every golden test stays on the byte-identical path.
func TestAutoShardThreshold(t *testing.T) {
	dims := []int{16, 16}
	w := workload.RandomRangesKd(dims, 20, noise.NewSource(2))
	prep, err := GridPolicyRangeKd(dims, mech.PriveletKind, Config{}).Prepare(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, blocked := prep.Operator().(*sparse.BlockedOperator); blocked {
		t.Fatalf("%d-cell domain sharded under automatic config; threshold is %d",
			16*16, sparse.DefaultShardCells)
	}
}

// TestTreeShardedCSRByteIdentical checks the construction-sharded tree
// compile: the per-block-built, concatenated CSR must be byte-identical to
// the serial build, so answers are bitwise identical at any block size.
func TestTreeShardedCSRByteIdentical(t *testing.T) {
	const k = 256
	tr := lineTransform(t, k)
	w := workload.RandomRanges1D(k, 200, noise.NewSource(77))
	mono, err := CompileTree("tree", tr, 1, LaplaceEstimator, w, Config{MaxBlockCells: -1})
	if err != nil {
		t.Fatal(err)
	}
	monoCSR, ok := mono.Operator().(*sparse.CSR)
	if !ok {
		t.Fatalf("monolithic operator is %T, want *sparse.CSR", mono.Operator())
	}
	for _, blockQueries := range []int{1, 16, 50, 200} {
		shard, err := CompileTree("tree", tr, 1, LaplaceEstimator, w, Config{MaxBlockCells: blockQueries})
		if err != nil {
			t.Fatal(err)
		}
		csr, ok := shard.Operator().(*sparse.CSR)
		if !ok {
			t.Fatalf("block=%d: sharded operator is %T, want *sparse.CSR", blockQueries, shard.Operator())
		}
		if !reflect.DeepEqual(csr.RowPtr, monoCSR.RowPtr) || !reflect.DeepEqual(csr.ColIdx, monoCSR.ColIdx) {
			t.Fatalf("block=%d: sharded CSR structure differs from serial build", blockQueries)
		}
		for i := range monoCSR.Val {
			if math.Float64bits(csr.Val[i]) != math.Float64bits(monoCSR.Val[i]) {
				t.Fatalf("block=%d: Val[%d] differs (bitwise)", blockQueries, i)
			}
		}
		x := rampHistogram(k)
		got, err := shard.Answer(x, 0.3, noise.NewSource(9))
		if err != nil {
			t.Fatal(err)
		}
		want, err := mono.Answer(x, 0.3, noise.NewSource(9))
		if err != nil {
			t.Fatal(err)
		}
		bitwiseEqual(t, "tree", got, want)
	}
}

// TestShardedStreamMatchesStatic binds a sharded grid compile to a stream
// State and drives integer deltas through both the patch path and forced
// recomputes: on integer counts the blocked per-slab tables stay exact, so
// stream answers must equal the static sharded compile bitwise at every
// step, and the patch path must actually engage (no silent full rebuilds).
func TestShardedStreamMatchesStatic(t *testing.T) {
	dims := []int{13, 5}
	k := 13 * 5
	w := workload.RandomRangesKd(dims, 60, noise.NewSource(41))
	prep, err := GridPolicyRangeKd(dims, mech.PriveletKind, Config{MaxBlockCells: 20}).Prepare(w)
	if err != nil {
		t.Fatal(err)
	}
	x := countHistogram(k)
	st, err := prep.Refresh(x)
	if err != nil {
		t.Fatal(err)
	}
	src := noise.NewSource(13)
	for step := 0; step < 50; step++ {
		cell := src.Intn(k)
		delta := float64(src.Intn(5) - 2)
		x[cell] += delta
		if err := st.Apply([]int{cell}, []float64{delta}); err != nil {
			t.Fatal(err)
		}
		got, err := st.Answer(0.4, noise.NewSource(int64(step)))
		if err != nil {
			t.Fatal(err)
		}
		want, err := prep.Answer(x, 0.4, noise.NewSource(int64(step)))
		if err != nil {
			t.Fatal(err)
		}
		bitwiseEqual(t, "stream", got, want)
	}
	if st.Patches() == 0 {
		t.Fatal("no incremental patches ran; blocked SAT cost cap is not engaging")
	}
	// A forced recompute lands on the same table.
	st.Recompute()
	got, err := st.Answer(0.4, noise.NewSource(99))
	if err != nil {
		t.Fatal(err)
	}
	want, err := prep.Answer(x, 0.4, noise.NewSource(99))
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, "stream recompute", got, want)
}
