package blowfish

import (
	"errors"
	"math"
	"testing"
)

func TestAnswerExactOnEveryPolicyShape(t *testing.T) {
	src := NewSource(1)
	cases := []struct {
		name string
		p    *Policy
		w    *Workload
	}{
		{"line/hist", LinePolicy(16), Histogram(16)},
		{"line/ranges", LinePolicy(16), AllRanges1D(16)},
		{"unbounded/ranges", UnboundedPolicy(10), AllRanges1D(10)},
		{"grid/ranges", GridPolicy(5), RandomRangesKd([]int{5, 5}, 100, src.Split())},
	}
	if p, err := DistanceThresholdPolicy([]int{20}, 3); err == nil {
		cases = append(cases, struct {
			name string
			p    *Policy
			w    *Workload
		}{"theta-line/ranges", p, AllRanges1D(20)})
	}
	if p, err := DistanceThresholdPolicy([]int{6, 6}, 4); err == nil {
		cases = append(cases, struct {
			name string
			p    *Policy
			w    *Workload
		}{"theta-grid/ranges", p, RandomRangesKd([]int{6, 6}, 100, src.Split())})
	}
	for _, tc := range cases {
		x := make([]float64, tc.p.K)
		for i := range x {
			x[i] = float64((i*7)%13 + 1)
		}
		got, err := Answer(tc.w, x, tc.p, 0, src.Split(), Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		truth := tc.w.Answers(x)
		for i := range truth {
			if math.Abs(got[i]-truth[i]) > 1e-6*(1+math.Abs(truth[i])) {
				t.Fatalf("%s: query %d = %g, truth %g", tc.name, i, got[i], truth[i])
			}
		}
	}
}

func TestAnswerNoisyIsPlausible(t *testing.T) {
	src := NewSource(2)
	p := LinePolicy(64)
	w := AllRanges1D(64)
	x := make([]float64, 64)
	x[10] = 100
	got, err := Answer(w, x, p, 1.0, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	truth := w.Answers(x)
	var mse float64
	for i := range truth {
		d := got[i] - truth[i]
		mse += d * d
	}
	mse /= float64(len(truth))
	if mse == 0 {
		t.Fatal("no noise added at eps=1")
	}
	if mse > 100 { // Θ(1/ε²) with small constants
		t.Fatalf("per-query error %g implausibly large for the line policy", mse)
	}
}

func TestAnswerEstimatorVariants(t *testing.T) {
	p := LinePolicy(32)
	w := Histogram(32)
	x := make([]float64, 32)
	x[5] = 50
	src := NewSource(3)
	for _, est := range []Estimator{EstimatorLaplace, EstimatorConsistent, EstimatorDAWA, EstimatorDAWAConsistent} {
		if _, err := Answer(w, x, p, 0.5, src.Split(), Options{Estimator: est}); err != nil {
			t.Fatalf("estimator %d: %v", est, err)
		}
	}
}

// TestAnswerSizeMismatch checks that the one-shot Answer rejects every
// malformed input with a typed error instead of panicking.
func TestAnswerSizeMismatch(t *testing.T) {
	cases := []struct {
		name string
		w    *Workload
		x    []float64
		p    *Policy
		src  *Source
		want error
	}{
		{"short x", Histogram(4), make([]float64, 3), LinePolicy(4), NewSource(4), ErrDomainMismatch},
		{"long x", Histogram(4), make([]float64, 5), LinePolicy(4), NewSource(4), ErrDomainMismatch},
		{"workload domain", Histogram(5), make([]float64, 4), LinePolicy(4), NewSource(4), ErrDomainMismatch},
		{"nil policy", Histogram(4), make([]float64, 4), nil, NewSource(4), ErrInvalidOptions},
		{"nil workload", nil, make([]float64, 4), LinePolicy(4), NewSource(4), ErrInvalidOptions},
		{"nil source", Histogram(4), make([]float64, 4), LinePolicy(4), nil, ErrInvalidOptions},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Answer(tc.w, tc.x, tc.p, 1, tc.src, Options{})
			if !errors.Is(err, tc.want) {
				t.Fatalf("Answer error %v, want %v", err, tc.want)
			}
		})
	}
}

func TestAnswerDisconnectedPolicy(t *testing.T) {
	p, err := SensitiveAttributePolicy([]int{2, 2}, []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Answer(Histogram(4), make([]float64, 4), p, 1, NewSource(5), Options{}); err == nil {
		t.Fatal("disconnected policy should require SplitComponents")
	}
	comps, err := SplitComponents(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 2 {
		t.Fatalf("components %d", len(comps))
	}
}

func TestSelectAlgorithmBranches(t *testing.T) {
	src := NewSource(6)
	// Tree branch.
	if alg, err := SelectAlgorithm(Histogram(8), LinePolicy(8), Options{}); err != nil || alg.Name != "blowfish(tree)" {
		t.Fatalf("tree branch: %v %v", alg.Name, err)
	}
	// Theta-line branch.
	pt, err := DistanceThresholdPolicy([]int{12}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if alg, err := SelectAlgorithm(AllRanges1D(12), pt, Options{}); err != nil || alg.Name != "blowfish(theta-line)" {
		t.Fatalf("theta-line branch: %v %v", alg.Name, err)
	}
	// Grid branch.
	w2 := RandomRangesKd([]int{4, 4}, 10, src)
	if alg, err := SelectAlgorithm(w2, GridPolicy(4), Options{}); err != nil || alg.Name != "Transformed + Privelet" {
		t.Fatalf("grid branch: %v %v", alg.Name, err)
	}
	// Theta-grid branch.
	pg, err := DistanceThresholdPolicy([]int{6, 6}, 4)
	if err != nil {
		t.Fatal(err)
	}
	w3 := RandomRangesKd([]int{6, 6}, 10, src)
	if alg, err := SelectAlgorithm(w3, pg, Options{}); err != nil {
		t.Fatalf("theta-grid branch: %v", err)
	} else if alg.Name == "" {
		t.Fatal("empty algorithm")
	}
	// Fallback branch: grid policy with a non-range workload falls back to a
	// BFS tree.
	if alg, err := SelectAlgorithm(Histogram(16), GridPolicy(4), Options{}); err != nil || alg.Name != "blowfish(bfs-tree)" {
		t.Fatalf("fallback branch: %v %v", alg.Name, err)
	}
}

func TestPolicySensitivityPublic(t *testing.T) {
	// Example 4.1: cumulative histogram under the line policy has policy
	// sensitivity 1 versus k under standard DP.
	k := 8
	w := CumulativeHistogram(k)
	if got := PolicySensitivity(w, LinePolicy(k)); got != 1 {
		t.Fatalf("policy sensitivity %g", got)
	}
}

func TestNewTransformPublic(t *testing.T) {
	tr, err := NewTransform(LinePolicy(6))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.IsTree() || tr.NumEdges() != 5 {
		t.Fatal("transform on line policy wrong")
	}
}

func TestBFSFallbackExactness(t *testing.T) {
	// A cycle policy (no structured strategy) must still answer exactly at
	// eps=0 through the BFS-tree fallback.
	k := 10
	p := LinePolicy(k)
	p.G.MustAddEdge(k-1, 0) // close the cycle
	p.Name = "cycle"
	p.Theta = 0 // disable the theta-line branch
	p.Dims = nil
	w := AllRanges1D(k)
	x := make([]float64, k)
	for i := range x {
		x[i] = float64(i)
	}
	got, err := Answer(w, x, p, 0, NewSource(7), Options{})
	if err != nil {
		t.Fatal(err)
	}
	truth := w.Answers(x)
	for i := range truth {
		if math.Abs(got[i]-truth[i]) > 1e-6 {
			t.Fatalf("cycle fallback query %d mismatch", i)
		}
	}
}

func TestMarginalsPublicAPI(t *testing.T) {
	dims := []int{4, 4}
	m, err := Marginals(dims, []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 4 {
		t.Fatalf("marginal queries = %d", m.Len())
	}
	p, err := DistanceThresholdPolicy(dims, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 16)
	for i := range x {
		x[i] = float64(i)
	}
	got, err := Answer(m, x, p, 0, NewSource(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	truth := m.Answers(x)
	for i := range truth {
		if math.Abs(got[i]-truth[i]) > 1e-9 {
			t.Fatalf("marginal %d mismatch", i)
		}
	}
}

func TestGeometricEstimatorPublicAPI(t *testing.T) {
	p := LinePolicy(16)
	x := make([]float64, 16)
	x[3] = 9
	got, err := Answer(Histogram(16), x, p, 0.5, NewSource(9), Options{Estimator: EstimatorGeometric})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != math.Trunc(v) {
			t.Fatalf("cell %d not integral: %g", i, v)
		}
	}
}

func TestOptimizeAlgorithmPublicAPI(t *testing.T) {
	w := CumulativeHistogram(12)
	alg, perQuery, err := OptimizeAlgorithm(w, LinePolicy(12), 1)
	if err != nil {
		t.Fatal(err)
	}
	if perQuery > 10 {
		t.Fatalf("optimizer error %g", perQuery)
	}
	x := make([]float64, 12)
	x[5] = 3
	got, err := alg.Run(w, x, 0, NewSource(10))
	if err != nil {
		t.Fatal(err)
	}
	truth := w.Answers(x)
	for i := range truth {
		if math.Abs(got[i]-truth[i]) > 1e-9 {
			t.Fatal("optimized algorithm not exact at eps=0")
		}
	}
	// A database of the wrong size is an error, not a panic.
	for _, n := range []int{5, 13} {
		if _, err := alg.Run(w, make([]float64, n), 1, NewSource(11)); err == nil {
			t.Fatalf("database of size %d accepted for a 12-cell domain", n)
		}
	}
}
