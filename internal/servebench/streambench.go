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

	blowfish "github.com/privacylab/blowfish"
	"github.com/privacylab/blowfish/internal/eval"
)

// StreamBenchOptions sizes the streaming-maintenance experiment. Every count
// must be positive.
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

// StreamExperiment measures what the streaming update engine buys per delta
// batch: the incremental refresh (Stream.Apply patching the maintained
// strategy state in place) against the full recompile a cache-dropping
// server pays when data changes (Engine.Open + Prepare + rebinding the
// strategy state to the updated database via OpenStream). Both columns are
// medians from eval.SecondsPerCall, at least Batches calls each. The
// untimed checks (see runStreamScenario) fail the experiment on any
// incremental-vs-recompile drift beyond 1e-9. Tree scenarios stream uniform
// random cells; grid scenarios stream append-mostly cells (the trailing
// rows), the regime the suffix-box summed-area patching targets.
func StreamExperiment(o StreamBenchOptions) (*eval.Table, error) {
	t := &eval.Table{
		Title: fmt.Sprintf("Streaming maintenance: incremental refresh vs full recompile (%d batches × %d cells, %d queries)",
			o.Batches, o.BatchCells, o.Queries),
		Metric:  "median seconds per delta batch (wall clock) / recompile-vs-incremental speedup",
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
		recent := func(r *blowfish.Source) int { return k - 1 - r.Intn(min(4, side)*side) }
		if err := runStreamScenario(t, label, pol, w, k, o, src, recent); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// runStreamScenario times both maintenance paths of one policy/workload
// pair and appends a table row. cellFn picks delta cells (nil = uniform over
// the domain). After each of the first Batches batches the incremental
// state's artifacts are checked against a state rebuilt densely over the
// same database; after every recompile the recompiled artifacts are checked
// against the final incremental ones, which carry every batch; at the end
// the two states' noiseless workload answers are compared.
func runStreamScenario(t *eval.Table, label string, pol *blowfish.Policy, w *blowfish.Workload,
	k int, o StreamBenchOptions, src *blowfish.Source, cellFn func(*blowfish.Source) int) error {
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
	// Incremental: patch the maintained strategy state in place, one fresh
	// delta batch per call. x mirrors the stream's database for the checks
	// and the recompile.
	var d blowfish.Delta
	incSec, err := eval.SecondsPerCall(o.Batches, eval.Timed{
		Setup: func(int) error {
			d = blowfish.Delta{Cells: make([]int, o.BatchCells), Values: make([]float64, o.BatchCells)}
			for i := range d.Cells {
				if cellFn != nil {
					d.Cells[i] = cellFn(cells)
				} else {
					d.Cells[i] = cells.Intn(k)
				}
				d.Values[i] = math.Floor(cells.Uniform()*5) + 1
			}
			return nil
		},
		Run: func(b int) error {
			if err := st.Apply(d); err != nil {
				return fmt.Errorf("eval: stream bench %s batch %d: %w", label, b, err)
			}
			return nil
		},
		Check: func(b int) error {
			for i, c := range d.Cells {
				x[c] += d.Values[i]
			}
			// A dense rebuild costs tens of patches, so batch-by-batch checks
			// stop after Batches calls; the recompile checks below compare
			// the final state, which carries every batch.
			if b > o.Batches {
				return nil
			}
			ref, err := eng.OpenStream(pl, x, blowfish.StreamOptions{})
			if err != nil {
				return fmt.Errorf("eval: stream bench %s batch %d: %w", label, b, err)
			}
			return sameArtifacts(fmt.Sprintf("stream bench %s batch %d: incremental vs recompile", label, b), st, ref)
		},
	})
	if err != nil {
		return err
	}
	// Baseline: what serving without incremental maintenance pays when data
	// changes — reopen the engine, recompile the plan and rebuild the
	// strategy's data-side state densely over the updated database.
	var full *blowfish.Stream
	fullSec, err := eval.SecondsPerCall(o.Batches, eval.Timed{
		Run: func(r int) error {
			eng, err := blowfish.Open(pol, blowfish.EngineOptions{})
			if err == nil {
				var pl *blowfish.Plan
				if pl, err = eng.Prepare(w, blowfish.Options{}); err == nil {
					full, err = eng.OpenStream(pl, x, blowfish.StreamOptions{})
				}
			}
			if err != nil {
				return fmt.Errorf("eval: stream bench %s recompile %d: %w", label, r, err)
			}
			return nil
		},
		Check: func(r int) error {
			return sameArtifacts(fmt.Sprintf("stream bench %s recompile %d: incremental vs recompile", label, r), st, full)
		},
	})
	if err != nil {
		return err
	}
	if err := sameNoiseless(fmt.Sprintf("stream bench %s answers: incremental vs recompile", label), st, full); err != nil {
		return err
	}
	t.Rows = append(t.Rows, label)
	t.Cells = append(t.Cells, []float64{fullSec, incSec, fullSec / incSec})
	return nil
}

// sameArtifacts checks two maintained states of one compiled strategy at
// the artifacts every answer is computed from.
func sameArtifacts(what string, got, want *blowfish.Stream) error {
	return eval.Within(what, got.ExportState().Artifacts, want.ExportState().Artifacts, 1e-9)
}

// sameNoiseless checks two maintained states at their noiseless workload
// answers.
func sameNoiseless(what string, got, want *blowfish.Stream) error {
	ctx := context.Background()
	g, err := got.AnswerWith(ctx, nil, 0, blowfish.NewSource(1))
	if err != nil {
		return fmt.Errorf("eval: %s: %w", what, err)
	}
	w, err := want.AnswerWith(ctx, nil, 0, blowfish.NewSource(1))
	if err != nil {
		return fmt.Errorf("eval: %s: %w", what, err)
	}
	return eval.Within(what, g, w, 1e-9)
}
