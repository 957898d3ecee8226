// Benchmarks regenerating every table and figure of the paper's evaluation
// (indexed in README "Running experiments"), plus ablations of the design
// choices ARCHITECTURE.md describes. Each figure bench runs the corresponding
// experiment at reduced-but-faithful sizes and reports the headline ratio
// the paper's narrative rests on as a custom metric, so a regression in the
// *shape* of a result shows up as a metric change, not just a time change.
//
//	go test -bench=. -benchmem
//
// cmd/blowfishbench prints the full tables (use -full for paper scale).
package blowfish

import (
	"math"
	"math/rand"
	"testing"

	"github.com/privacylab/blowfish/internal/core"
	"github.com/privacylab/blowfish/internal/eval"
	"github.com/privacylab/blowfish/internal/linalg"
	"github.com/privacylab/blowfish/internal/lowerbound"
	"github.com/privacylab/blowfish/internal/mech"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/policy"
	"github.com/privacylab/blowfish/internal/sparse"
	"github.com/privacylab/blowfish/internal/strategy"
	"github.com/privacylab/blowfish/internal/workload"
)

func benchOpts() eval.Options {
	return eval.Options{Runs: 2, Queries: 400, Seed: 1, DomainScale: 16} // k = 256
}

// BenchmarkTable1Datasets regenerates Table 1 (dataset statistics).
func BenchmarkTable1Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Table1Experiment(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3ErrorBounds regenerates the Figure 3 error-bound table
// (empirical error of every workload/policy row vs its DP counterpart) and
// reports the row-1 Blowfish-vs-Privelet improvement factor.
func BenchmarkFig3ErrorBounds(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		tabs, err := eval.Fig3Experiment(eval.QuickFig3())
		if err != nil {
			b.Fatal(err)
		}
		last := len(tabs[0].Rows) - 1
		ratio = tabs[0].Cells[last][1] / tabs[0].Cells[last][0]
	}
	b.ReportMetric(ratio, "privelet/blowfish")
}

// fig8Panel runs one Section 6 panel and returns the ratio of the first DP
// baseline's error to the first Blowfish algorithm's error on the last row.
func fig8Panel(b *testing.B, run func(float64, eval.Options) (*eval.Table, error), eps float64, blowCol string) float64 {
	b.Helper()
	tab, err := run(eps, benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	last := tab.Rows[len(tab.Rows)-1]
	base, err := tab.Cell(last, tab.Columns[0])
	if err != nil {
		b.Fatal(err)
	}
	blow, err := tab.Cell(last, blowCol)
	if err != nil {
		b.Fatal(err)
	}
	return base / blow
}

// BenchmarkFig8Hist regenerates the Hist panels (Fig 8b at ε=0.01; Fig 8f
// uses ε=0.1 — swept by cmd/blowfishbench).
func BenchmarkFig8Hist(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = fig8Panel(b, eval.HistExperiment, 0.1, "Transformed + Laplace")
	}
	b.ReportMetric(ratio, "laplace/blowfish")
}

// BenchmarkFig8Range1DG1 regenerates the 1D-Range G¹_k panels (Fig 8c/8g).
func BenchmarkFig8Range1DG1(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = fig8Panel(b, eval.Range1DG1Experiment, 0.1, "Transformed + Laplace")
	}
	b.ReportMetric(ratio, "privelet/blowfish")
}

// BenchmarkFig8Range1DG4 regenerates the 1D-Range G⁴_k domain sweep
// (Fig 8d/8h).
func BenchmarkFig8Range1DG4(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = fig8Panel(b, eval.Range1DG4Experiment, 0.1, "Transformed + Laplace")
	}
	b.ReportMetric(ratio, "privelet/blowfish")
}

// BenchmarkFig8Range2D regenerates the 2D-Range panels (Fig 8a/8e).
func BenchmarkFig8Range2D(b *testing.B) {
	var ratio float64
	opts := benchOpts()
	opts.Queries = 200
	for i := 0; i < b.N; i++ {
		tab, err := eval.Range2DExperiment(0.1, opts)
		if err != nil {
			b.Fatal(err)
		}
		priv, _ := tab.Cell("T100", "Privelet")
		blow, _ := tab.Cell("T100", "Transformed + Privelet")
		ratio = priv / blow
	}
	b.ReportMetric(ratio, "privelet/blowfish")
}

// BenchmarkFig9Hist and friends regenerate the Figure 9 panels (ε = 1 and
// 0.001; the large-ε end is where the data-dependent Blowfish variants win
// almost everywhere).
func BenchmarkFig9Hist(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = fig8Panel(b, eval.HistExperiment, 1, "Trans + Dawa + Cons")
	}
	b.ReportMetric(ratio, "laplace/transdawa")
}

// BenchmarkFig9Range1DG1 regenerates Fig 9c/9g.
func BenchmarkFig9Range1DG1(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = fig8Panel(b, eval.Range1DG1Experiment, 1, "Transformed + Laplace")
	}
	b.ReportMetric(ratio, "privelet/blowfish")
}

// BenchmarkFig9Range1DG4 regenerates Fig 9d/9h.
func BenchmarkFig9Range1DG4(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = fig8Panel(b, eval.Range1DG4Experiment, 1, "Transformed + Laplace")
	}
	b.ReportMetric(ratio, "privelet/blowfish")
}

// BenchmarkFig9Range2D regenerates Fig 9a/9e.
func BenchmarkFig9Range2D(b *testing.B) {
	var ratio float64
	opts := benchOpts()
	opts.Queries = 200
	for i := 0; i < b.N; i++ {
		tab, err := eval.Range2DExperiment(1, opts)
		if err != nil {
			b.Fatal(err)
		}
		priv, _ := tab.Cell("T100", "Privelet")
		blow, _ := tab.Cell("T100", "Transformed + Privelet")
		ratio = priv / blow
	}
	b.ReportMetric(ratio, "privelet/blowfish")
}

// BenchmarkFig10SVD1D regenerates the Figure 10a lower-bound sweep and
// reports the DP-to-G¹ bound ratio at the largest domain.
func BenchmarkFig10SVD1D(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		tab, err := eval.SVD1DExperiment(eval.QuickFig10())
		if err != nil {
			b.Fatal(err)
		}
		last := tab.Rows[len(tab.Rows)-1]
		dp, _ := tab.Cell(last, "unbounded DP")
		g1, _ := tab.Cell(last, "Theta=1")
		ratio = dp / g1
	}
	b.ReportMetric(ratio, "dp/theta1")
}

// BenchmarkFig10Spectral is the spectral engine's acceptance benchmark: one
// Corollary A.2 bound on the k=1024 line domain (1023 edges, just past the
// DenseEigenMaxDim dispatch threshold) through the dense Gram+tred2
// reference versus the matvec-only Lanczos path. The Lanczos sub-benchmark
// asserts the resolved spectra agree to 1e-9 of the spectral radius; the
// acceptance floor is a ≥10× per-bound speedup (≈20× serial on dev
// hardware, growing with k — ≈130× at k=2048).
func BenchmarkFig10Spectral(b *testing.B) {
	const k = 1024
	p, err := policy.DistanceThreshold([]int{k}, 1)
	if err != nil {
		b.Fatal(err)
	}
	gs := lowerbound.RangeGramSource1D(k)
	dBound, dsv, err := lowerbound.SVDBoundDense(gs, p, 1, 0.001)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("dense-tred2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := lowerbound.SVDBoundDense(gs, p, 1, 0.001); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lanczos", func(b *testing.B) {
		var sBound float64
		var ssv []float64
		for i := 0; i < b.N; i++ {
			var err error
			sBound, ssv, err = lowerbound.SVDBoundSpectral(gs, p, 1, 0.001, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
		}
		lmax := dsv[0] * dsv[0]
		for i := range ssv {
			if d := math.Abs(ssv[i]*ssv[i] - dsv[i]*dsv[i]); d > 1e-9*lmax {
				b.Fatalf("sigma[%d]: lanczos %.15g vs dense %.15g", i, ssv[i], dsv[i])
			}
		}
		if sBound > dBound*(1+1e-9) || sBound < 0.99*dBound {
			b.Fatalf("spectral bound %g vs dense %g out of certified range", sBound, dBound)
		}
		b.ReportMetric(sBound/dBound, "bound-ratio")
	})
}

// BenchmarkFig10SVD2D regenerates the Figure 10b sweep.
func BenchmarkFig10SVD2D(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		tab, err := eval.SVD2DExperiment(eval.QuickFig10())
		if err != nil {
			b.Fatal(err)
		}
		last := tab.Rows[len(tab.Rows)-1]
		bounded, _ := tab.Cell(last, "bounded DP")
		g1, _ := tab.Cell(last, "Theta=1")
		ratio = bounded / g1
	}
	b.ReportMetric(ratio, "bounded/theta1")
}

// --- Ablations (design choices described in ARCHITECTURE.md) ---

// BenchmarkAblationTreeVsDenseTransform compares the O(k) subtree-sum
// database transform against the dense pseudo-inverse on the same tree
// policy.
func BenchmarkAblationTreeVsDenseTransform(b *testing.B) {
	k := 256
	p := policy.Line(k)
	tr, err := core.New(p)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, k)
	for i := range x {
		x[i] = float64(i % 17)
	}
	b.Run("tree-fast-path", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tr.DatabaseTransform(x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense-pseudo-inverse", func(b *testing.B) {
		pg := tr.PG()
		for i := 0; i < b.N; i++ {
			if _, err := linalg.RightInverse(pg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationOracleKinds compares the three oracle kinds inside the
// 2-D grid strategy (Theorem 5.4): Privelet should dominate for random
// rectangles.
func BenchmarkAblationOracleKinds(b *testing.B) {
	dims := []int{32, 32}
	src := noise.NewSource(1)
	w := workload.RandomRangesKd(dims, 300, src.Split())
	x := make([]float64, 1024)
	for _, kind := range []struct {
		name string
		k    mech.OracleKind
	}{{"cell", mech.CellKind}, {"hier", mech.HierKind}, {"privelet", mech.PriveletKind}} {
		kind := kind
		b.Run(kind.name, func(b *testing.B) {
			alg := strategy.GridPolicyRangeKd(dims, kind.k, strategy.Config{})
			var mse float64
			for i := 0; i < b.N; i++ {
				var err error
				mse, err = eval.MeasureMSE(alg, w, x, 0.5, 2, src.Split())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(mse, "mse")
		})
	}
}

// BenchmarkAblationThetaLineStrategies compares the two implementations of
// the G^θ_k mechanism: the plain tree path (Laplace on x_G) versus the
// Theorem 5.5 grouped strategy with Privelet oracles.
func BenchmarkAblationThetaLineStrategies(b *testing.B) {
	k, theta := 1024, 16
	src := noise.NewSource(2)
	w := workload.RandomRanges1D(k, 400, src.Split())
	x := make([]float64, k)
	algs, err := strategy.ThetaLineAlgorithms(k, theta)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		alg  strategy.Algorithm
	}{
		{"tree-laplace", algs[0]},
		{"grouped-privelet", strategy.ThetaLineGrouped(k, theta, mech.PriveletKind)},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var mse float64
			for i := 0; i < b.N; i++ {
				var err error
				mse, err = eval.MeasureMSE(tc.alg, w, x, 0.5, 2, src.Split())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(mse, "mse")
		})
	}
}

// BenchmarkPlanReuse compares one release through a prepared Plan against
// the legacy per-call Answer (which rebuilds the transform and strategy
// every time) on the Figure 3 row-1 setting: random 1-D ranges under the
// line policy. The prepared path is the Engine/Plan hot path; ≥5× is the
// expected gap at this size. cmd/blowfishbench -exp planreuse reports the
// same comparison through the blowfishbench/v1 JSON schema.
func BenchmarkPlanReuse(b *testing.B) {
	const k = 1024
	src := noise.NewSource(8)
	p := LinePolicy(k)
	w := RandomRanges1D(k, 2000, NewSource(8))
	x := make([]float64, k)
	for i := range x {
		x[i] = float64(i % 13)
	}
	b.Run("legacy-answer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Answer(w, x, p, 1.0, NewSource(src.Int63()), Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared-plan", func(b *testing.B) {
		eng, err := Open(p, EngineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		plan, err := eng.Prepare(w, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := plan.Answer(x, 1.0, NewSource(src.Int63())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlanAnswerBatch measures the concurrent batch path: one shared
// plan answering a batch of databases with pre-split noise streams.
func BenchmarkPlanAnswerBatch(b *testing.B) {
	const k = 1024
	eng, err := Open(LinePolicy(k), EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := eng.Prepare(RandomRanges1D(k, 1000, NewSource(9)), Options{})
	if err != nil {
		b.Fatal(err)
	}
	xs := make([][]float64, 16)
	for i := range xs {
		xs[i] = make([]float64, k)
	}
	src := NewSource(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.AnswerBatch(xs, 1.0, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnswerSparse is the headline of the sparse operator layer: one
// release of a 2000-query random-range workload on the domain-8192 line
// policy, answered through a fully dense reconstruction matrix (what
// Plan.Answer costs without density selection — a q×|E| matvec per release;
// the tree strategies' coefficient lists were already O(nnz), so this is
// the floor the operator layer guarantees for every strategy, not a
// regression at HEAD) versus the Engine/Plan path whose compile step
// selects the CSR operator (O(nnz) per release). Expected gap at this size
// is >10×; ≥5× is the acceptance floor at GOMAXPROCS=4. Both paths compile
// exactly once — the timed loops perform zero recompilations, asserted via
// the strategy and transform counters.
func BenchmarkAnswerSparse(b *testing.B) {
	const k, queries = 8192, 2000
	w := RandomRanges1D(k, queries, NewSource(21))
	x := make([]float64, k)
	for i := range x {
		x[i] = float64(i % 31)
	}
	src := noise.NewSource(22)
	assertNoRecompiles := func(b *testing.B, run func()) {
		b.Helper()
		compiles, builds := strategy.Compilations(), core.TransformBuilds()
		b.ResetTimer()
		run()
		b.StopTimer()
		if strategy.Compilations() != compiles || core.TransformBuilds() != builds {
			b.Fatal("timed loop recompiled the strategy or transform")
		}
	}
	b.Run("dense-matvec", func(b *testing.B) {
		tr, err := core.New(policy.Line(k))
		if err != nil {
			b.Fatal(err)
		}
		prep, err := strategy.CompileTreeDense("blowfish(tree)", tr, 1, strategy.LaplaceEstimator, w)
		if err != nil {
			b.Fatal(err)
		}
		assertNoRecompiles(b, func() {
			for i := 0; i < b.N; i++ {
				if _, err := prep.Answer(x, 1.0, noise.NewSource(src.Int63())); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("sparse-operator", func(b *testing.B) {
		eng, err := Open(LinePolicy(k), EngineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		plan, err := eng.Prepare(w, Options{})
		if err != nil {
			b.Fatal(err)
		}
		assertNoRecompiles(b, func() {
			for i := 0; i < b.N; i++ {
				if _, err := plan.Answer(x, 1.0, NewSource(src.Int63())); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	// CSR matvec kernel comparison (ROADMAP "SIMD-friendly CSR kernels"):
	// the same compiled reconstruction matrix driven through the 4-wide
	// unrolled row kernel versus the pre-unroll one-entry-at-a-time
	// reference. Both run serial so the gap isolates the unroll; the two are
	// bitwise identical (TestApplyUnrolledBitwiseVsSimple).
	tr, err := core.New(policy.Line(k))
	if err != nil {
		b.Fatal(err)
	}
	prep, err := strategy.CompileTree("blowfish(tree)", tr, 1, strategy.LaplaceEstimator, w)
	if err != nil {
		b.Fatal(err)
	}
	csr, ok := prep.Operator().(*sparse.CSR)
	if !ok {
		b.Fatalf("compiled operator is %T, want *sparse.CSR", prep.Operator())
	}
	rows, cols := csr.Dims()
	xg := make([]float64, cols)
	for i := range xg {
		xg[i] = float64(i%13) - 6
	}
	out := make([]float64, rows)
	prevPar := linalg.SetParallelism(1)
	defer linalg.SetParallelism(prevPar)
	b.Run("csr-matvec-simple", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			csr.ApplySimple(out, xg)
		}
	})
	b.Run("csr-matvec-unrolled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			csr.Apply(out, xg)
		}
	})
}

// --- Micro-benchmarks of the hot substrates ---

// BenchmarkDatabaseTransformLine measures the O(k) tree transform.
func BenchmarkDatabaseTransformLine(b *testing.B) {
	tr, err := core.New(policy.Line(4096))
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.DatabaseTransform(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSheets measures one release's noise oracles for each kind: the
// 126 lines of width 64 a 64×64 grid release draws with 2000 face reads
// spread over them, and one 16×16 sheet with 2000 rectangle reads. Each op
// draws every sheet and makes every read.
func BenchmarkSheets(b *testing.B) {
	for _, shape := range []struct {
		name   string
		dims   []int
		sheets int
	}{{"126x64", []int{64}, 126}, {"16x16", []int{16, 16}, 1}} {
		rng := rand.New(rand.NewSource(4))
		type read struct {
			sheet  int
			lo, hi []int
		}
		reads := make([]read, 2000)
		for i := range reads {
			r := read{sheet: rng.Intn(shape.sheets), lo: make([]int, len(shape.dims)), hi: make([]int, len(shape.dims))}
			for d, m := range shape.dims {
				r.lo[d] = rng.Intn(m)
				r.hi[d] = r.lo[d] + rng.Intn(m-r.lo[d])
			}
			reads[i] = r
		}
		for _, kind := range []struct {
			name string
			k    mech.OracleKind
		}{{"cell", mech.CellKind}, {"hier", mech.HierKind}, {"privelet", mech.PriveletKind}} {
			b.Run(kind.name+"/"+shape.name, func(b *testing.B) {
				b.ReportAllocs()
				src := noise.NewSource(3)
				sheets := make([]mech.Sheet, shape.sheets)
				for b.Loop() {
					for j := range sheets {
						sheets[j] = mech.NewSheet(kind.k, shape.dims, 0.5, src)
					}
					for _, r := range reads {
						sheets[r.sheet].RectNoise(r.lo, r.hi)
					}
				}
			})
		}
	}
}

// BenchmarkGridKd3D measures the general-dimension Theorem 5.4 strategy on
// a 3-D grid (an extension beyond the paper's 2-D evaluation).
func BenchmarkGridKd3D(b *testing.B) {
	dims := []int{16, 16, 16}
	src := noise.NewSource(5)
	w := workload.RandomRangesKd(dims, 300, src.Split())
	x := make([]float64, 4096)
	alg := strategy.GridPolicyRangeKd(dims, mech.PriveletKind, strategy.Config{})
	b.ResetTimer()
	var mse float64
	for i := 0; i < b.N; i++ {
		var err error
		mse, err = eval.MeasureMSE(alg, w, x, 0.5, 1, src.Split())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mse, "mse")
}

// BenchmarkMul measures the dense product kernel serially and on the
// parallel row-blocked path; the headline parallel win of the multicore
// refactor (≥ 2× expected at GOMAXPROCS ≥ 4).
func BenchmarkMul(b *testing.B) {
	const n = 384
	src := noise.NewSource(6)
	a := linalg.New(n, n)
	c := linalg.New(n, n)
	for i := range a.Data {
		a.Data[i] = src.NormFloat64()
		c.Data[i] = src.NormFloat64()
	}
	for _, tc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			prev := linalg.SetParallelism(tc.workers)
			defer linalg.SetParallelism(prev)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				linalg.Mul(a, c)
			}
		})
	}
}

// BenchmarkGram measures the symmetric AᵀA kernel (half the flops of Mul)
// serially and in parallel; it is the hot step of PseudoInverseTall and the
// SVD lower bounds.
func BenchmarkGram(b *testing.B) {
	const n = 384
	src := noise.NewSource(7)
	a := linalg.New(n, n)
	for i := range a.Data {
		a.Data[i] = src.NormFloat64()
	}
	for _, tc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			prev := linalg.SetParallelism(tc.workers)
			defer linalg.SetParallelism(prev)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				linalg.Gram(a)
			}
		})
	}
}

// BenchmarkRange2DParallelism runs the heaviest Section 6 experiment at
// Parallelism 1 and at one-worker-per-CPU; the ratio of the two timings is
// the end-to-end speedup of the experiment scheduler.
func BenchmarkRange2DParallelism(b *testing.B) {
	for _, tc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			opts := benchOpts()
			opts.Queries = 200
			opts.Parallelism = tc.workers
			prev := linalg.SetParallelism(tc.workers)
			defer linalg.SetParallelism(prev)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eval.Range2DExperiment(0.1, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10Parallelism sweeps the Figure 10a SVD bounds — pure
// eigensolver work — serially and in parallel.
func BenchmarkFig10Parallelism(b *testing.B) {
	for _, tc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			o := eval.QuickFig10()
			o.Parallelism = tc.workers
			prev := linalg.SetParallelism(tc.workers)
			defer linalg.SetParallelism(prev)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eval.SVD1DExperiment(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDAWA4096 measures a full DAWA run at the paper's domain size.
func BenchmarkDAWA4096(b *testing.B) {
	src := noise.NewSource(4)
	x := make([]float64, 4096)
	x[100] = 1000
	x[2000] = 500
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mech.NewDAWA(x, 0.1, 0.25, src.Split())
	}
}
