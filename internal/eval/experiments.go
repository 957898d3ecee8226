package eval

import (
	"fmt"

	"github.com/privacylab/blowfish/internal/dataset"
	"github.com/privacylab/blowfish/internal/mech"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/strategy"
	"github.com/privacylab/blowfish/internal/workload"
)

// contender pairs an algorithm with its budget convention: following the
// figure captions, standard DP baselines run at ε/2 while Blowfish
// algorithms run at ε.
type contender struct {
	alg  strategy.Algorithm
	half bool
}

func runContenders(title, metric string, cons []contender, rows []string,
	data func(row int) (*workload.Workload, []float64, error),
	eps float64, opts Options) (*Table, error) {
	opts = opts.normalize()
	t := &Table{Title: title, Metric: metric}
	for _, c := range cons {
		t.Columns = append(t.Columns, c.alg.Name)
	}
	// Build phase (serial): materialize row data and split every noise
	// stream in the fixed row-major order the serial path used.
	src := noise.NewSource(opts.Seed)
	g := newGrid(len(rows), len(cons), opts)
	for ri, label := range rows {
		w, x, err := data(ri)
		if err != nil {
			return nil, fmt.Errorf("eval: %s row %s: %w", title, label, err)
		}
		truth := w.Answers(x)
		for ci, c := range cons {
			g.addContender(ri, ci, c, w, x, truth, eps, src.Split())
		}
	}
	cells, err := g.run()
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Cells = cells
	return t, nil
}

// oneDimDatasets synthesizes the 1-D Table 1 datasets A–G at the
// (possibly scaled-down) domain size.
func oneDimDatasets(opts Options, src *noise.Source) (names []string, k int, data [][]float64) {
	for _, spec := range dataset.Table1() {
		if len(spec.Dims) != 1 {
			continue
		}
		s := spec
		s.Dims = []int{spec.Dims[0] / opts.DomainScale}
		s.Scale = spec.Scale / float64(opts.DomainScale)
		names = append(names, s.Name)
		k = s.Dims[0]
		data = append(data, dataset.Generate(s, src))
	}
	return names, k, data
}

// HistExperiment reproduces the Hist panels of Figures 8–9 (8b/8f/9b/9f):
// the histogram workload on datasets A–G under G¹_k, comparing the ε/2-DP
// Laplace and DAWA baselines with the Blowfish transformed algorithms.
func HistExperiment(eps float64, opts Options) (*Table, error) {
	opts = opts.normalize()
	src := noise.NewSource(opts.Seed + 100)
	names, k, data := oneDimDatasets(opts, src)
	blow, err := strategy.LinePolicyAlgorithms(k)
	if err != nil {
		return nil, err
	}
	cons := []contender{
		{alg: strategy.DPLaplaceHist(), half: true},
		{alg: strategy.DPDawaHist(), half: true},
	}
	for _, a := range blow {
		cons = append(cons, contender{alg: a})
	}
	w := workload.Identity(k)
	title := fmt.Sprintf("Hist (eps=%g, G^1_k, k=%d)", eps, k)
	return runContenders(title, "avg squared error per query", cons, names,
		func(row int) (*workload.Workload, []float64, error) { return w, data[row], nil },
		eps, opts)
}

// Range1DG1Experiment reproduces the 1D-Range panels under G¹_k
// (Figures 8c/8g/9c/9g): random range queries on datasets A–G.
func Range1DG1Experiment(eps float64, opts Options) (*Table, error) {
	opts = opts.normalize()
	src := noise.NewSource(opts.Seed + 200)
	names, k, data := oneDimDatasets(opts, src)
	blow, err := strategy.LinePolicyAlgorithms(k)
	if err != nil {
		return nil, err
	}
	cons := []contender{
		{alg: strategy.DPPriveletRange1D(), half: true},
		{alg: strategy.DPDawaRange1D(), half: true},
	}
	for _, a := range blow {
		cons = append(cons, contender{alg: a})
	}
	w := workload.RandomRanges1D(k, opts.Queries, src.Split())
	title := fmt.Sprintf("1D-Range (eps=%g, G^1_k, k=%d)", eps, k)
	return runContenders(title, "avg squared error per query", cons, names,
		func(row int) (*workload.Workload, []float64, error) { return w, data[row], nil },
		eps, opts)
}

// Range1DG4Experiment reproduces the 1D-Range panels under G⁴_k
// (Figures 8d/8h/9d/9h): dataset D aggregated to a sweep of domain sizes,
// with the Blowfish algorithms running on the stretch-3 spanner H⁴_k.
func Range1DG4Experiment(eps float64, opts Options) (*Table, error) {
	opts = opts.normalize()
	const theta = 4
	src := noise.NewSource(opts.Seed + 300)
	specD, err := dataset.ByName("D")
	if err != nil {
		return nil, err
	}
	fullK := specD.Dims[0] / opts.DomainScale
	specD.Dims = []int{fullK}
	specD.Scale /= float64(opts.DomainScale)
	full := dataset.Generate(specD, src)
	// Domain sizes fullK/8, fullK/4, fullK/2, fullK (512…4096 at paper scale).
	var rows []string
	var ks []int
	var data [][]float64
	for _, f := range []int{8, 4, 2, 1} {
		agg, err := dataset.Aggregate1D(full, f)
		if err != nil {
			return nil, err
		}
		ks = append(ks, len(agg))
		rows = append(rows, fmt.Sprintf("%d", len(agg)))
		data = append(data, agg)
	}
	cons := []contender{
		{alg: strategy.DPPriveletRange1D(), half: true},
		{alg: strategy.DPDawaRange1D(), half: true},
	}
	title := fmt.Sprintf("1D-Range (eps=%g, G^%d_k, domain sweep)", eps, theta)
	t := &Table{Title: title, Metric: "avg squared error per query"}
	// Blowfish algorithms depend on k, so assemble per row.
	firstBlow, err := strategy.ThetaLineAlgorithms(ks[0], theta)
	if err != nil {
		return nil, err
	}
	for _, c := range cons {
		t.Columns = append(t.Columns, c.alg.Name)
	}
	for _, a := range firstBlow {
		t.Columns = append(t.Columns, a.Name)
	}
	g := newGrid(len(ks), len(cons)+len(firstBlow), opts)
	for ri, k := range ks {
		w := workload.RandomRanges1D(k, opts.Queries, src.Split())
		blow, err := strategy.ThetaLineAlgorithms(k, theta)
		if err != nil {
			return nil, err
		}
		all := append([]contender{}, cons...)
		for _, a := range blow {
			all = append(all, contender{alg: a})
		}
		truth := w.Answers(data[ri])
		for ci, c := range all {
			g.addContender(ri, ci, c, w, data[ri], truth, eps, src.Split())
		}
	}
	cells, err := g.run()
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Cells = cells
	return t, nil
}

// Range2DExperiment reproduces the 2D-Range panels under G¹_{k²}
// (Figures 8a/8e/9a/9e): random rectangle queries on the Twitter grids,
// comparing Privelet and DAWA baselines with Transformed + Privelet.
func Range2DExperiment(eps float64, opts Options) (*Table, error) {
	opts = opts.normalize()
	src := noise.NewSource(opts.Seed + 400)
	t := &Table{
		Title:  fmt.Sprintf("2D-Range (eps=%g, G^1_{k^2})", eps),
		Metric: "avg squared error per query",
	}
	specs := []string{"T25", "T50", "T100"}
	g := newGrid(len(specs), 0, opts)
	first := true
	for ri, name := range specs {
		spec, err := dataset.ByName(name)
		if err != nil {
			return nil, err
		}
		x := dataset.Generate(spec, src)
		dims := spec.Dims
		w := workload.RandomRangesKd(dims, opts.Queries, src.Split())
		cons := []contender{
			{alg: strategy.DPPriveletRangeKd(dims), half: true},
			{alg: strategy.DPDawaRangeKd(dims), half: true},
			{alg: strategy.GridPolicyRangeKd(dims, mech.PriveletKind, strategy.Config{})},
		}
		if first {
			for _, c := range cons {
				t.Columns = append(t.Columns, c.alg.Name)
			}
			first = false
		}
		truth := w.Answers(x)
		for ci, c := range cons {
			g.addContender(ri, ci, c, w, x, truth, eps, src.Split())
		}
		t.Rows = append(t.Rows, name)
	}
	cells, err := g.run()
	if err != nil {
		return nil, err
	}
	t.Cells = cells
	return t, nil
}

// Table1Experiment reproduces Table 1: the realized statistics of every
// synthetic dataset against its published spec.
func Table1Experiment(opts Options) (*Table, error) {
	opts = opts.normalize()
	src := noise.NewSource(opts.Seed + 500)
	t := &Table{
		Title:   "Table 1: dataset statistics (spec vs synthesized)",
		Metric:  "domain size / scale / % zero counts",
		Columns: []string{"Domain", "SpecScale", "GenScale", "Spec%Zero", "Gen%Zero"},
	}
	for _, spec := range dataset.Table1() {
		x := dataset.Generate(spec, src.Split())
		scale, zf := dataset.Stats(x)
		t.Rows = append(t.Rows, spec.Name)
		t.Cells = append(t.Cells, []float64{
			float64(spec.K()), spec.Scale, scale, spec.ZeroFrac * 100, zf * 100,
		})
	}
	return t, nil
}
