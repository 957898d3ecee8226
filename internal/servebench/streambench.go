// Package servebench holds the streaming-maintenance and domain-sharding
// experiments behind cmd/blowfishbench's -exp stream and -exp shard. It
// lives outside internal/eval because both build on the public blowfish
// package: folding them into eval would make the root package's own test
// binary (which uses eval) depend on itself.
package servebench

import (
	"context"
	"fmt"
	"math"
	"time"

	blowfish "github.com/privacylab/blowfish"
	"github.com/privacylab/blowfish/internal/eval"
)

// StreamBenchOptions sizes the streaming-maintenance experiment.
type StreamBenchOptions struct {
	// Seed makes the delta schedule and every noise stream deterministic.
	Seed int64
	// Batches is how many delta batches each scenario streams.
	Batches int
	// BatchCells is how many single-cell deltas ride in one batch.
	BatchCells int
	// TreeDomains are the 1-D line-policy domain sizes.
	TreeDomains []int
	// GridSides are the side lengths of the k×k grid-policy scenarios.
	GridSides []int
	// Queries is the number of random range queries per workload.
	Queries int
}

// QuickStreamBench returns test/CI-sized options.
func QuickStreamBench() StreamBenchOptions {
	return StreamBenchOptions{Seed: 1, Batches: 8, BatchCells: 16,
		TreeDomains: []int{1024, 4096}, GridSides: []int{32, 64}, Queries: 200}
}

// DefaultStreamBench returns the acceptance-scale options: every scenario's
// domain is at least 8192 cells.
func DefaultStreamBench() StreamBenchOptions {
	return StreamBenchOptions{Seed: 1, Batches: 20, BatchCells: 16,
		TreeDomains: []int{8192, 16384}, GridSides: []int{96, 128}, Queries: 500}
}

func (o StreamBenchOptions) normalize() StreamBenchOptions {
	if o.Batches < 1 {
		o.Batches = 1
	}
	if o.BatchCells < 1 {
		o.BatchCells = 1
	}
	if o.Queries < 1 {
		o.Queries = 1
	}
	return o
}

// StreamExperiment measures what the streaming update engine buys per delta
// batch: the incremental refresh (Stream.Apply patching the maintained
// strategy state in place) against the full recompile a cache-dropping
// server pays when data changes (Engine.Open + Prepare + rebinding the
// strategy state to the updated database via OpenStream). After every batch
// both maintained states answer the workload noiselessly and the experiment
// fails if any answer pair drifts beyond 1e-9, so the benchmark doubles as
// an equivalence check of the incremental maintenance — the check itself is
// untimed. Tree scenarios stream uniform random cells; grid scenarios
// stream append-mostly cells (the trailing rows), the regime the suffix-box
// summed-area patching targets.
func StreamExperiment(o StreamBenchOptions) (*eval.Table, error) {
	o = o.normalize()
	t := &eval.Table{
		Title: fmt.Sprintf("Streaming maintenance: incremental refresh vs full recompile (%d batches × %d cells, %d queries)",
			o.Batches, o.BatchCells, o.Queries),
		Metric:  "seconds per delta batch (wall clock) / recompile-vs-incremental speedup",
		Columns: []string{"recompile s/batch", "incremental s/batch", "speedup"},
	}
	src := blowfish.NewSource(o.Seed + 900)
	for _, k := range o.TreeDomains {
		pol := blowfish.LinePolicy(k)
		w := blowfish.RandomRanges1D(k, o.Queries, src.Split())
		label := fmt.Sprintf("tree k=%d", k)
		if err := runStreamScenario(t, label, pol, w, k, o, src, nil); err != nil {
			return nil, err
		}
	}
	for _, side := range o.GridSides {
		k := side * side
		pol := blowfish.GridPolicy(side)
		w := blowfish.RandomRangesKd([]int{side, side}, o.Queries, src.Split())
		label := fmt.Sprintf("grid %dx%d (k=%d)", side, side, k)
		// Append-mostly cells: the trailing 4 rows of the map, where a
		// summed-area patch touches only the small trailing suffix box.
		recent := func(r *blowfish.Source) int {
			rows := 4
			if rows > side {
				rows = side
			}
			return k - 1 - r.Intn(rows*side)
		}
		if err := runStreamScenario(t, label, pol, w, k, o, src, recent); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// runStreamScenario streams o.Batches delta batches through one policy/
// workload pair, timing both maintenance paths and appending a table row.
// cellFn picks delta cells (nil = uniform over the domain).
func runStreamScenario(t *eval.Table, label string, pol *blowfish.Policy, w *blowfish.Workload,
	k int, o StreamBenchOptions, src *blowfish.Source, cellFn func(*blowfish.Source) int) error {
	const eps = 1.0
	ctx := context.Background()
	cells := src.Split()
	eng, err := blowfish.Open(pol, blowfish.EngineOptions{})
	if err != nil {
		return fmt.Errorf("eval: stream bench %s: %w", label, err)
	}
	pl, err := eng.Prepare(w, blowfish.Options{})
	if err != nil {
		return fmt.Errorf("eval: stream bench %s: %w", label, err)
	}
	x := make([]float64, k)
	for i := range x {
		x[i] = math.Floor(cells.Uniform() * 50)
	}
	st, err := eng.OpenStream(pl, x, blowfish.StreamOptions{})
	if err != nil {
		return fmt.Errorf("eval: stream bench %s: %w", label, err)
	}
	// xFull mirrors the stream's database for the recompile baseline.
	xFull := append([]float64(nil), x...)
	var incSec, fullSec float64
	for b := 0; b < o.Batches; b++ {
		d := blowfish.Delta{
			Cells:  make([]int, o.BatchCells),
			Values: make([]float64, o.BatchCells),
		}
		for i := range d.Cells {
			if cellFn != nil {
				d.Cells[i] = cellFn(cells)
			} else {
				d.Cells[i] = cells.Intn(k)
			}
			d.Values[i] = math.Floor(cells.Uniform()*5) + 1
		}
		// Incremental: patch the maintained strategy state in place.
		start := time.Now()
		if err := st.Apply(d); err != nil {
			return fmt.Errorf("eval: stream bench %s batch %d: %w", label, b, err)
		}
		incSec += time.Since(start).Seconds()

		// Baseline: what serving without incremental maintenance pays when
		// data changes — reopen the engine, recompile the plan and rebuild
		// the strategy's data-side state densely over the updated database.
		for i, c := range d.Cells {
			xFull[c] += d.Values[i]
		}
		start = time.Now()
		engFull, err := blowfish.Open(pol, blowfish.EngineOptions{})
		if err != nil {
			return fmt.Errorf("eval: stream bench %s batch %d: %w", label, b, err)
		}
		plFull, err := engFull.Prepare(w, blowfish.Options{})
		if err != nil {
			return fmt.Errorf("eval: stream bench %s batch %d: %w", label, b, err)
		}
		stFull, err := engFull.OpenStream(plFull, xFull, blowfish.StreamOptions{})
		if err != nil {
			return fmt.Errorf("eval: stream bench %s batch %d: %w", label, b, err)
		}
		fullSec += time.Since(start).Seconds()

		// Equivalence (untimed): noiseless answers off both maintained
		// states must agree to accumulation error.
		check := blowfish.NewSource(1)
		inc, err := st.AnswerWith(ctx, nil, 0, check)
		if err != nil {
			return fmt.Errorf("eval: stream bench %s batch %d: %w", label, b, err)
		}
		full, err := stFull.AnswerWith(ctx, nil, 0, check)
		if err != nil {
			return fmt.Errorf("eval: stream bench %s batch %d: %w", label, b, err)
		}
		for i := range full {
			if diff := math.Abs(inc[i] - full[i]); diff > 1e-9 {
				return fmt.Errorf("eval: stream bench %s batch %d query %d: incremental %v vs recompile %v (|diff| %g > 1e-9)",
					label, b, i, inc[i], full[i], diff)
			}
		}
	}
	speedup := math.NaN()
	if incSec > 0 {
		speedup = fullSec / incSec
	}
	t.Rows = append(t.Rows, label)
	t.Cells = append(t.Cells, []float64{
		fullSec / float64(o.Batches), incSec / float64(o.Batches), speedup,
	})
	return nil
}
