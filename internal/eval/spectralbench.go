package eval

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/privacylab/blowfish/internal/lowerbound"
	"github.com/privacylab/blowfish/internal/policy"
)

// SpectralPoint is one sweep point of the fig10spectral comparison: the
// Corollary A.2 bound for the all-ranges workload over Dims under the
// distance-threshold policy G^θ.
type SpectralPoint struct {
	Dims  []int
	Theta int
}

// Fig10SpectralOptions sizes the dense-vs-Lanczos spectral comparison.
type Fig10SpectralOptions struct {
	Eps, Delta float64
	Points     []SpectralPoint
	// DenseMaxEdges caps the dense edge-domain reference; past it the exact
	// Cholesky-reduced engine takes over as reference while the domain fits
	// lowerbound.ReducedEigenMaxDomain. Points beyond both (the true
	// frontier) report the Lanczos cells only — certified lower bounds with
	// no exact value to compare against (NaN reference cells).
	DenseMaxEdges int
	// MaxDelta is the dense-vs-Lanczos equivalence gate, measured as
	// max |σ²_lanczos − σ²_dense| relative to the spectral radius over the
	// resolved top of the spectrum; the experiment errors out beyond it.
	// 0 means 1e-9.
	MaxDelta float64
}

// QuickFig10Spectral returns small sweep points where the dense reference
// always runs, so every CI execution asserts dense-vs-Lanczos equivalence.
func QuickFig10Spectral() Fig10SpectralOptions {
	return Fig10SpectralOptions{
		Eps: 1, Delta: 0.001,
		Points: []SpectralPoint{
			{Dims: []int{64}, Theta: 1},
			{Dims: []int{128}, Theta: 2},
			{Dims: []int{8, 8}, Theta: 1},
		},
		DenseMaxEdges: 4096,
	}
}

// DefaultFig10Spectral returns the paper-scale sweep: the dense reference
// runs up to ~2k edges (tens of seconds per bound), the Cholesky-reduced
// reference covers the remaining points within 1024 cells, and the Lanczos
// path continues alone to k = 4096 and 64² grids beyond every exact
// engine's reach.
func DefaultFig10Spectral() Fig10SpectralOptions {
	return Fig10SpectralOptions{
		Eps: 1, Delta: 0.001,
		Points: []SpectralPoint{
			{Dims: []int{256}, Theta: 1},
			{Dims: []int{256}, Theta: 4},
			{Dims: []int{512}, Theta: 4},
			{Dims: []int{1024}, Theta: 1},
			{Dims: []int{2048}, Theta: 1},
			{Dims: []int{1024}, Theta: 4},
			{Dims: []int{4096}, Theta: 1},
			{Dims: []int{16, 16}, Theta: 1},
			{Dims: []int{32, 32}, Theta: 2},
			{Dims: []int{64, 64}, Theta: 3},
		},
		DenseMaxEdges: 2100,
	}
}

// Fig10SpectralExperiment runs every sweep point through the Lanczos
// spectral path and, wherever an exact engine is feasible (dense Gram+tred2
// up to DenseMaxEdges edges, the Cholesky-reduced k×k solve up to
// lowerbound.ReducedEigenMaxDomain cells), through that reference too. It
// reports the median seconds per bound on each engine (SecondsPerCall),
// their speedup, the eigenvalue-space deviation of the resolved spectrum,
// and the bound ratio — the Lanczos value is a certified lower bound on the
// exact one, so the ratio reads as its tightness (near 1 on fast-decaying
// spectra, down to ~0.4 on flat ones). Any spectral deviation beyond
// MaxDelta, or a Lanczos bound above the exact bound, fails the experiment;
// the check runs after every Lanczos call, so every run with a reference
// doubles as an equivalence check. Frontier points past every exact engine
// report the Lanczos cells alone (NaN reference columns). Points run
// serially: the cells are wall-clock measurements.
func Fig10SpectralExperiment(o Fig10SpectralOptions) (*Table, error) {
	maxDelta := o.MaxDelta
	if maxDelta <= 0 {
		maxDelta = 1e-9
	}
	t := &Table{
		Title: fmt.Sprintf("Figure 10 spectral engine: exact (dense/reduced) vs Lanczos (eps=%g, delta=%g)",
			o.Eps, o.Delta),
		Metric:  "median seconds per bound / speedup / max |dLambda|/lambda_max / bound ratio",
		Columns: []string{"exact s/bound", "lanczos s/bound", "speedup", "max dLambda", "bound ratio"},
	}
	for _, pt := range o.Points {
		label, gs, err := spectralSource(pt)
		if err != nil {
			return nil, err
		}
		pol, err := policy.DistanceThreshold(pt.Dims, pt.Theta)
		if err != nil {
			return nil, err
		}
		// The exact reference, when one is feasible, is timed first so every
		// Lanczos call is checked against it.
		exact := lowerbound.SVDBoundReduced
		if len(pol.G.Edges) <= o.DenseMaxEdges {
			exact = lowerbound.SVDBoundDense
		} else if pol.K > lowerbound.ReducedEigenMaxDomain {
			exact = nil
		}
		var eBound float64
		var esv []float64
		exactSec := math.NaN()
		if exact != nil {
			exactSec, err = SecondsPerCall(1, Timed{Run: func(int) (err error) {
				if eBound, esv, err = exact(gs, pol, o.Eps, o.Delta); err != nil {
					return fmt.Errorf("eval: fig10spectral %s exact: %w", label, err)
				}
				return nil
			}})
			if err != nil {
				return nil, err
			}
		}
		var sBound float64
		var ssv []float64
		delta, ratio := math.NaN(), math.NaN()
		lanczosSec, err := SecondsPerCall(1, Timed{
			Run: func(int) (err error) {
				if sBound, ssv, err = lowerbound.SVDBoundSpectral(gs, pol, o.Eps, o.Delta, 0, 0); err != nil {
					return fmt.Errorf("eval: fig10spectral %s lanczos: %w", label, err)
				}
				return nil
			},
			Check: func(int) error {
				if esv == nil {
					return nil
				}
				delta, ratio = spectralDeviation(ssv, esv), sBound/eBound
				if delta > maxDelta {
					return fmt.Errorf("eval: fig10spectral %s: Lanczos-vs-exact eigenvalue deviation %g exceeds %g",
						label, delta, maxDelta)
				}
				if ratio > 1+1e-9 {
					return fmt.Errorf("eval: fig10spectral %s: spectral bound %g exceeds exact bound %g",
						label, sBound, eBound)
				}
				return nil
			},
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, label)
		t.Cells = append(t.Cells, []float64{exactSec, lanczosSec, exactSec / lanczosSec, delta, ratio})
	}
	return t, nil
}

// spectralDeviation compares two resolved spectra in eigenvalue (σ²) space
// relative to the exact spectral radius — the resolution both engines work
// at; past the operator's rank each reports rounding-level zeros.
func spectralDeviation(ssv, esv []float64) float64 {
	lmax := esv[0] * esv[0]
	var delta float64
	for i := 0; i < len(ssv) && i < len(esv); i++ {
		if d := math.Abs(ssv[i]*ssv[i]-esv[i]*esv[i]) / (lmax + 1e-300); d > delta {
			delta = d
		}
	}
	return delta
}

func spectralSource(pt SpectralPoint) (string, lowerbound.GramSource, error) {
	switch len(pt.Dims) {
	case 1:
		return fmt.Sprintf("1D k=%d theta=%d", pt.Dims[0], pt.Theta),
			lowerbound.RangeGramSource1D(pt.Dims[0]), nil
	case 0:
		return "", nil, fmt.Errorf("eval: fig10spectral point without dimensions")
	default:
		sides := make([]string, len(pt.Dims))
		for i, d := range pt.Dims {
			sides[i] = strconv.Itoa(d)
		}
		return fmt.Sprintf("%dD %s theta=%d", len(pt.Dims), strings.Join(sides, "x"), pt.Theta),
			lowerbound.RangeGramSourceGrid(pt.Dims), nil
	}
}
