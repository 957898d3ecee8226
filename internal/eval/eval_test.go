package eval

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/strategy"
	"github.com/privacylab/blowfish/internal/workload"
)

func TestMeasureMSEExactAlgorithm(t *testing.T) {
	// An exact algorithm must measure zero error.
	algs, err := strategy.LinePolicyAlgorithms(16)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.Identity(16)
	x := make([]float64, 16)
	x[3] = 7
	mse, err := MeasureMSE(algs[0], w, x, 0, 3, noise.NewSource(1))
	if err != nil {
		t.Fatal(err)
	}
	if mse != 0 {
		t.Fatalf("exact algorithm measured %g", mse)
	}
}

func TestMeasureMSEMatchesLaplaceVariance(t *testing.T) {
	// Per-query MSE of the Laplace histogram baseline must be ~2/ε².
	w := workload.Identity(64)
	x := make([]float64, 64)
	mse, err := MeasureMSE(strategy.DPLaplaceHist(), w, x, 1, 200, noise.NewSource(2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mse-2)/2 > 0.15 {
		t.Fatalf("Laplace MSE %g, want ~2", mse)
	}
}

func TestTableRenderAndCell(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Metric:  "err",
		Columns: []string{"a", "b"},
		Rows:    []string{"r1"},
		Cells:   [][]float64{{1.5, math.NaN()}},
	}
	s := tab.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "1.5") || !strings.Contains(s, "-") {
		t.Fatalf("render output:\n%s", s)
	}
	v, err := tab.Cell("r1", "a")
	if err != nil || v != 1.5 {
		t.Fatal("Cell lookup failed")
	}
	if _, err := tab.Cell("nope", "a"); err == nil {
		t.Fatal("missing cell accepted")
	}
}

func quickOpts() Options {
	return Options{Runs: 2, Queries: 300, Seed: 5, DomainScale: 16} // k = 256
}

func TestHistExperimentShape(t *testing.T) {
	tab, err := HistExperiment(0.1, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 || len(tab.Columns) != 5 {
		t.Fatalf("table shape %dx%d", len(tab.Rows), len(tab.Columns))
	}
	for i := range tab.Rows {
		for j := range tab.Columns {
			if v := tab.Cells[i][j]; math.IsNaN(v) || v < 0 {
				t.Fatalf("bad cell (%d,%d) = %g", i, j, v)
			}
		}
	}
}

func TestRange1DG1ExperimentBlowfishWins(t *testing.T) {
	tab, err := Range1DG1Experiment(0.1, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's 2–3 orders of magnitude: on every dataset the Blowfish
	// data-independent strategy must beat Privelet by at least 10×.
	for _, row := range tab.Rows {
		priv, err := tab.Cell(row, "Privelet")
		if err != nil {
			t.Fatal(err)
		}
		blow, err := tab.Cell(row, "Transformed + Laplace")
		if err != nil {
			t.Fatal(err)
		}
		if blow*10 > priv {
			t.Fatalf("dataset %s: Blowfish %g vs Privelet %g (want 10x gap)", row, blow, priv)
		}
	}
}

func TestRange1DG4ExperimentFlatInDomain(t *testing.T) {
	tab, err := Range1DG4Experiment(1, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows %v", tab.Rows)
	}
	first, err := tab.Cell(tab.Rows[0], "Transformed + Laplace")
	if err != nil {
		t.Fatal(err)
	}
	last, err := tab.Cell(tab.Rows[3], "Transformed + Laplace")
	if err != nil {
		t.Fatal(err)
	}
	// Error flat in domain size (the transformed workload is identity-like).
	if last > 3*first {
		t.Fatalf("Blowfish error grew with domain: %g -> %g", first, last)
	}
	// While Privelet error grows.
	p1, _ := tab.Cell(tab.Rows[0], "Privelet")
	p4, _ := tab.Cell(tab.Rows[3], "Privelet")
	if p4 <= p1 {
		t.Fatalf("Privelet error did not grow with domain: %g -> %g", p1, p4)
	}
}

func TestRange2DExperimentShape(t *testing.T) {
	opts := quickOpts()
	opts.Queries = 150
	tab, err := Range2DExperiment(0.1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows %v", tab.Rows)
	}
	// Transformed + Privelet must beat plain Privelet on the largest grid.
	priv, _ := tab.Cell("T100", "Privelet")
	blow, _ := tab.Cell("T100", "Transformed + Privelet")
	if blow >= priv {
		t.Fatalf("T100: Blowfish %g not below Privelet %g", blow, priv)
	}
}

func TestTable1Experiment(t *testing.T) {
	tab, err := Table1Experiment(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	// Generated zero-percent within 2 points of spec for every dataset.
	for i := range tab.Rows {
		spec := tab.Cells[i][3]
		gen := tab.Cells[i][4]
		if math.Abs(spec-gen) > 2 {
			t.Fatalf("dataset %s: %%zero %g vs %g", tab.Rows[i], spec, gen)
		}
	}
}

func TestFig10Experiments(t *testing.T) {
	o := QuickFig10()
	t1, err := SVD1DExperiment(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Rows) != len(o.Domains1D) {
		t.Fatal("fig10a rows")
	}
	// DP bound exceeds the G^1 bound at the largest domain.
	last := t1.Rows[len(t1.Rows)-1]
	dp, _ := t1.Cell(last, "unbounded DP")
	g1, _ := t1.Cell(last, "Theta=1")
	if g1 >= dp {
		t.Fatalf("fig10a: G^1 bound %g not below DP %g", g1, dp)
	}
	t2, err := SVD2DExperiment(o)
	if err != nil {
		t.Fatal(err)
	}
	// Every θ beats bounded DP.
	for _, row := range t2.Rows {
		bounded, _ := t2.Cell(row, "bounded DP")
		for _, th := range o.Thetas2D {
			b, _ := t2.Cell(row, "Theta="+itoa(th))
			if b >= bounded {
				t.Fatalf("fig10b row %s: theta=%d bound %g not below bounded %g", row, th, b, bounded)
			}
		}
	}
}

func itoa(v int) string { return strconv.Itoa(v) }

func TestFig3ExperimentShapes(t *testing.T) {
	tabs, err := Fig3Experiment(QuickFig3())
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 4 {
		t.Fatalf("fig3 tables %d", len(tabs))
	}
	// Row 1: Blowfish flat and below Privelet everywhere.
	t1 := tabs[0]
	for i := range t1.Rows {
		if t1.Cells[i][0] >= t1.Cells[i][1] {
			t.Fatalf("fig3 row1 %s: Blowfish %g not below Privelet %g",
				t1.Rows[i], t1.Cells[i][0], t1.Cells[i][1])
		}
	}
	first, last := t1.Cells[0][0], t1.Cells[len(t1.Rows)-1][0]
	if last > 3*first {
		t.Fatalf("fig3 row1: Blowfish error not flat: %g -> %g", first, last)
	}
}

func TestTableMarshalJSON(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Metric:  "err",
		Columns: []string{"a", "b"},
		Rows:    []string{"r1"},
		Cells:   [][]float64{{1.5, math.NaN()}},
	}
	raw, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	s := string(raw)
	for _, want := range []string{`"title":"demo"`, `"columns":["a","b"]`, `1.5`, `null`} {
		if !strings.Contains(s, want) {
			t.Fatalf("JSON missing %q:\n%s", want, s)
		}
	}
}

func TestSparseAnswerExperiment(t *testing.T) {
	opts := Quick()
	opts.Runs = 1
	opts.Queries = 200
	tab, err := SparseAnswerExperiment(opts)
	if err != nil {
		// The experiment itself asserts ≤1e-9 dense-vs-sparse agreement on
		// every release, so an error here is an equivalence failure.
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 || len(tab.Columns) != 3 {
		t.Fatalf("unexpected table shape: %d rows × %d cols", len(tab.Rows), len(tab.Columns))
	}
	last := tab.Rows[len(tab.Rows)-1]
	speedup, err := tab.Cell(last, "speedup")
	if err != nil {
		t.Fatal(err)
	}
	// The quick sizes show >10× on an idle machine; >1 is the structural
	// floor that survives arbitrarily noisy CI neighbors.
	if !(speedup > 1) {
		t.Fatalf("sparse path slower than dense at %s: speedup %g", last, speedup)
	}
}

func TestTableJSONRoundTrip(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Metric:  "err",
		Columns: []string{"a", "b", "c"},
		Rows:    []string{"r1", "r2"},
		Cells:   [][]float64{{1.5, math.NaN(), 1e-300}, {math.NaN(), 0, -2}},
	}
	raw, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `[1.5,null,1e-300]`) {
		t.Fatalf("NaN not written as null:\n%s", raw)
	}
	var back Table
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Title != tab.Title || back.Metric != tab.Metric ||
		strings.Join(back.Columns, ",") != strings.Join(tab.Columns, ",") ||
		strings.Join(back.Rows, ",") != strings.Join(tab.Rows, ",") {
		t.Fatalf("round trip changed the labels: %+v", back)
	}
	for i := range tab.Cells {
		for j, want := range tab.Cells[i] {
			got := back.Cells[i][j]
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("cell (%d,%d): %v, want %v", i, j, got, want)
			}
		}
	}
	// A report re-encoded from the decoded table is byte-identical.
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(raw) {
		t.Fatalf("re-encoding differs:\n%s\nvs\n%s", again, raw)
	}
}
