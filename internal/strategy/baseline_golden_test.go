package strategy

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/privacylab/blowfish/internal/mech"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/policy"
	"github.com/privacylab/blowfish/internal/workload"
)

// The baseline golden suite pins the exact bit patterns of seeded releases
// from the standard DP baselines and OptimizeDense, the strategies the
// root-level answer golden does not reach. The fixture was written by the
// per-call implementation these strategies had before they became
// compile-once Prepare strategies; Algorithm.Run must keep reproducing it
// bit for bit.
//
// Regenerate (only for an intentional, reviewed behavior change):
//
//	go test ./internal/strategy -run TestBaselineGolden -update-baseline-golden
var updateBaselineGolden = flag.Bool("update-baseline-golden", false, "rewrite testdata/baseline_golden.json")

const baselineGoldenPath = "testdata/baseline_golden.json"

// baselineCase is one algorithm answering one workload at ε = 0.5.
type baselineCase struct {
	name string
	alg  func(t *testing.T, w *workload.Workload) Algorithm
	w    func(src *noise.Source) *workload.Workload
}

func fixed(alg Algorithm) func(*testing.T, *workload.Workload) Algorithm {
	return func(*testing.T, *workload.Workload) Algorithm { return alg }
}

func optimized(p *policy.Policy) func(*testing.T, *workload.Workload) Algorithm {
	return func(t *testing.T, w *workload.Workload) Algorithm {
		alg, _, err := OptimizeDense(p, w, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return alg
	}
}

func baselineCases() []baselineCase {
	grid := []int{6, 6}
	hist := func(*noise.Source) *workload.Workload { return workload.Identity(32) }
	ranges := func(src *noise.Source) *workload.Workload { return workload.RandomRanges1D(32, 40, src) }
	rects := func(src *noise.Source) *workload.Workload { return workload.RandomRangesKd(grid, 40, src) }
	// The Theorem 5.4/5.6 grid cases use non-square grids, so a swap of the
	// per-dimension sheets cannot go unseen.
	rectsOn := func(dims []int) func(*noise.Source) *workload.Workload {
		return func(src *noise.Source) *workload.Workload { return workload.RandomRangesKd(dims, 40, src) }
	}
	grid57 := []int{5, 7}
	return []baselineCase{
		{"laplace/hist", fixed(DPLaplaceHist()), hist},
		{"dawa/hist", fixed(DPDawaHist()), hist},
		{"privelet/ranges1d", fixed(DPPriveletRange1D()), ranges},
		{"dawa/ranges1d", fixed(DPDawaRange1D()), ranges},
		{"privelet/rangeskd", fixed(DPPriveletRangeKd(grid)), rects},
		{"dawa/rangeskd", fixed(DPDawaRangeKd(grid)), rects},
		{"optimize/line/cumulative", optimized(policy.Line(12)),
			func(*noise.Source) *workload.Workload { return workload.Cumulative(12) }},
		{"optimize/grid/hist", optimized(policy.Grid(3)),
			func(*noise.Source) *workload.Workload { return workload.Identity(9) }},
		{"grid2d/rects/laplace", fixed(GridPolicyRangeKd(grid57, mech.CellKind, Config{})), rectsOn(grid57)},
		{"grid2d/rects/hier", fixed(GridPolicyRangeKd(grid57, mech.HierKind, Config{})), rectsOn(grid57)},
		{"grid2d/rects/privelet", fixed(GridPolicyRangeKd(grid57, mech.PriveletKind, Config{})), rectsOn(grid57)},
		{"gridkd/rects", fixed(GridPolicyRangeKd([]int{3, 4, 5}, mech.PriveletKind, Config{})), rectsOn([]int{3, 4, 5})},
		{"thetagrid/rects", fixed(ThetaGridRange2D([]int{9, 7}, 4, Config{})), rectsOn([]int{9, 7})},
		// A 3-row grid with cell 3 has a one-row red lattice: no external
		// sheets along dimension 0.
		{"thetagrid/rects/flat-lattice", fixed(ThetaGridRange2D([]int{3, 7}, 6, Config{})), rectsOn([]int{3, 7})},
	}
}

// baselineDatabase is the deterministic histogram every case answers on.
func baselineDatabase(k int) []float64 {
	x := make([]float64, k)
	for i := range x {
		x[i] = float64((i*7)%11 + 1)
	}
	return x
}

func TestBaselineGolden(t *testing.T) {
	results := map[string][]string{}
	for i, bc := range baselineCases() {
		w := bc.w(noise.NewSource(int64(3000 + i)))
		alg := bc.alg(t, w)
		got, err := alg.Run(w, baselineDatabase(w.K), 0.5, noise.NewSource(int64(4000+i)))
		if err != nil {
			t.Fatalf("%s: %v", bc.name, err)
		}
		bits := make([]string, len(got))
		for j, v := range got {
			bits[j] = strconv.FormatUint(math.Float64bits(v), 16)
		}
		results[bc.name] = bits
	}
	if *updateBaselineGolden {
		raw, err := json.MarshalIndent(results, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(baselineGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(baselineGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", baselineGoldenPath, len(results))
		return
	}
	raw, err := os.ReadFile(baselineGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update-baseline-golden): %v", err)
	}
	var want map[string][]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(results) {
		t.Fatalf("golden has %d cases, suite has %d", len(want), len(results))
	}
	for name, bits := range results {
		wb, ok := want[name]
		if !ok {
			t.Errorf("case %s missing from golden", name)
			continue
		}
		if len(wb) != len(bits) {
			t.Errorf("%s: got %d answers, golden has %d", name, len(bits), len(wb))
			continue
		}
		for i := range bits {
			if bits[i] != wb[i] {
				t.Errorf("%s: answer %d = %s, golden %s (not bitwise identical)", name, i, bits[i], wb[i])
				break
			}
		}
	}
}

// TestBaselinesRejectWrongQueryShape checks that every DP baseline refuses,
// at Prepare, a workload whose queries are not the shape it answers, and
// that the error names the baseline.
func TestBaselinesRejectWrongQueryShape(t *testing.T) {
	grid := []int{4, 4}
	cases := []struct {
		alg   Algorithm
		label string
		bad   *workload.Workload
	}{
		{DPLaplaceHist(), "Laplace hist baseline", workload.AllRanges1D(16)},
		{DPDawaHist(), "Dawa hist baseline", workload.AllRanges1D(16)},
		{DPPriveletRange1D(), "Privelet 1D baseline", workload.Identity(16)},
		{DPDawaRange1D(), "Dawa 1D baseline", workload.Identity(16)},
		{DPPriveletRangeKd(grid), "Privelet Kd baseline", workload.Identity(16)},
		{DPDawaRangeKd(grid), "Dawa Kd baseline", workload.Identity(16)},
		{DPPriveletRangeKd(grid), "Privelet Kd baseline", workload.AllRangesKd([]int{16})},
		{DPDawaRangeKd(grid), "Dawa Kd baseline", workload.AllRangesKd([]int{16})},
	}
	for _, tc := range cases {
		_, err := tc.alg.Prepare(tc.bad)
		if err == nil {
			t.Errorf("%s accepted workload %q", tc.label, tc.bad.Name)
			continue
		}
		if !strings.Contains(err.Error(), tc.label) {
			t.Errorf("%s: error %q does not name the baseline", tc.label, err)
		}
	}
}
