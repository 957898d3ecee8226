package strategy

import (
	"github.com/privacylab/blowfish/internal/mech"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/workload"
)

// This file holds the standard (unbounded) differentially private baselines
// of Section 6: Laplace for histograms, Privelet for 1-D and 2-D ranges, and
// DAWA for both. The experiment harness runs them at ε/2 when comparing with
// (ε, G)-Blowfish algorithms, following the figures' captions.

// DPLaplaceHist answers the histogram (or any workload whose queries are
// points) with per-cell Laplace noise, sensitivity 1.
func DPLaplaceHist() Algorithm {
	const name = "Laplace"
	return Algorithm{Name: name, Prepare: func(w *workload.Workload) (*Prepared, error) {
		cells, err := points("Laplace hist baseline", w)
		if err != nil {
			return nil, err
		}
		return release(name, w, nil, func(x []float64, eps float64, src *noise.Source) []float64 {
			noisy := mech.LaplaceVector(x, 1, eps, src)
			out := make([]float64, len(cells))
			for i, c := range cells {
				out[i] = noisy[c]
			}
			return out
		}), nil
	}}
}

// DPPriveletRange1D answers 1-D range queries with the Privelet wavelet
// mechanism over the original domain.
func DPPriveletRange1D() Algorithm {
	const name = "Privelet"
	return Algorithm{Name: name, Prepare: func(w *workload.Workload) (*Prepared, error) {
		ranges, err := ranges1D("Privelet 1D baseline", w)
		if err != nil {
			return nil, err
		}
		noiseInto := func(out []float64, eps float64, src *noise.Source) {
			oracle := mech.NewPriveletOracle(w.K, eps, src)
			for i, r := range ranges {
				out[i] += oracle.IntervalNoise(r.L, r.R)
			}
		}
		return truthPlusNoise(name, w, &range1DOp{k: w.K, ranges: ranges}, noiseInto, nil), nil
	}}
}

// DPDawaRange1D answers 1-D range queries with the data-dependent DAWA
// mechanism over the original domain.
func DPDawaRange1D() Algorithm {
	const name = "Dawa"
	return Algorithm{Name: name, Prepare: func(w *workload.Workload) (*Prepared, error) {
		ranges, err := ranges1D("Dawa 1D baseline", w)
		if err != nil {
			return nil, err
		}
		return release(name, w, nil, func(x []float64, eps float64, src *noise.Source) []float64 {
			d := mech.NewDAWA(x, eps, mech.DefaultPartitionRatio, src)
			out := make([]float64, len(ranges))
			for i, r := range ranges {
				out[i] = d.EstimateRange(r.L, r.R)
			}
			return out
		}), nil
	}}
}

// DPDawaHist answers point queries from a DAWA histogram estimate.
func DPDawaHist() Algorithm {
	const name = "Dawa"
	return Algorithm{Name: name, Prepare: func(w *workload.Workload) (*Prepared, error) {
		cells, err := points("Dawa hist baseline", w)
		if err != nil {
			return nil, err
		}
		return release(name, w, nil, func(x []float64, eps float64, src *noise.Source) []float64 {
			d := mech.NewDAWA(x, eps, mech.DefaultPartitionRatio, src)
			out := make([]float64, len(cells))
			for i, c := range cells {
				out[i] = d.EstimatePoint(c)
			}
			return out
		}), nil
	}}
}

// DPPriveletRangeKd answers hyper-rectangle queries with the tensor-product
// Privelet mechanism over the original grid.
func DPPriveletRangeKd(dims []int) Algorithm {
	const name = "Privelet"
	return Algorithm{Name: name, Prepare: func(w *workload.Workload) (*Prepared, error) {
		rects, err := rangesKd("Privelet Kd baseline", w, len(dims))
		if err != nil {
			return nil, err
		}
		noiseInto := func(out []float64, eps float64, src *noise.Source) {
			oracle := mech.NewPriveletKd(dims, eps, src)
			for i, r := range rects {
				out[i] += oracle.RectNoise(r.Lo, r.Hi)
			}
		}
		return truthPlusNoise(name, w, &rangeKdOp{dims: dims, k: w.K, rects: rects}, noiseInto, nil), nil
	}}
}

// DPDawaRangeKd answers hyper-rectangle queries by flattening the grid with
// a locality-preserving boustrophedon (snake) order and running 1-D DAWA on
// the flattened histogram; rectangle answers are assembled row by row. The
// published DAWA uses a Hilbert ordering for 2-D — the snake order is the
// stdlib-only substitution recorded in ARCHITECTURE.md "Substitutions" and
// preserves the clustered-data advantage the experiments exercise.
func DPDawaRangeKd(dims []int) Algorithm {
	if len(dims) != 2 {
		panic("strategy: DPDawaRangeKd supports 2-D grids")
	}
	const name = "Dawa"
	rows, cols := dims[0], dims[1]
	return Algorithm{Name: name, Prepare: func(w *workload.Workload) (*Prepared, error) {
		rects, err := rangesKd("Dawa Kd baseline", w, 2)
		if err != nil {
			return nil, err
		}
		return release(name, w, nil, func(x []float64, eps float64, src *noise.Source) []float64 {
			flat := make([]float64, len(x))
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					flat[snakeIndex(r, c, cols)] = x[r*cols+c]
				}
			}
			d := mech.NewDAWA(flat, eps, mech.DefaultPartitionRatio, src)
			out := make([]float64, len(rects))
			for i, rq := range rects {
				var v float64
				for r := rq.Lo[0]; r <= rq.Hi[0]; r++ {
					a := snakeIndex(r, rq.Lo[1], cols)
					b := snakeIndex(r, rq.Hi[1], cols)
					if a > b {
						a, b = b, a
					}
					v += d.EstimateRange(a, b)
				}
				out[i] = v
			}
			return out
		}), nil
	}}
}

// snakeIndex maps 2-D grid coordinates to the boustrophedon flattening:
// even rows run left→right, odd rows right→left, so consecutive flat
// positions are always grid neighbors.
func snakeIndex(r, c, cols int) int {
	if r%2 == 0 {
		return r*cols + c
	}
	return r*cols + (cols - 1 - c)
}
