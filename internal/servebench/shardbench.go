package servebench

import (
	"context"
	"fmt"
	"math"

	blowfish "github.com/privacylab/blowfish"
	"github.com/privacylab/blowfish/internal/eval"
)

// ShardBenchOptions sizes the domain-sharding experiment. Every count must be
// positive.
type ShardBenchOptions struct {
	// Seed makes histograms, workloads, and delta schedules deterministic.
	Seed int64
	// GridSides are the side lengths of the side×side grid scenarios.
	GridSides []int
	// TreeDomains are the 1-D line-policy domain sizes for the compile rows.
	TreeDomains []int
	// Queries is the number of random range queries per grid workload.
	Queries int
	// TreeQueries is the number of random range queries per tree workload
	// (the sharded tree compile parallelizes per-query support discovery, so
	// the compile rows need enough queries to measure).
	TreeQueries int
	// Runs is the least number of timed answers and compiles per engine.
	Runs int
	// Deltas is the least number of single-cell stream deltas each grid
	// scenario times per engine.
	Deltas int
}

// QuickShardBench returns test/CI-sized options.
func QuickShardBench() ShardBenchOptions {
	return ShardBenchOptions{Seed: 1, GridSides: []int{32, 64}, TreeDomains: []int{4096},
		Queries: 200, TreeQueries: 400, Runs: 2, Deltas: 32}
}

// DefaultShardBench returns the acceptance-scale options: the largest grid is
// 1024×1024 — 1,048,576 cells, past the 10⁶-cell target.
func DefaultShardBench() ShardBenchOptions {
	return ShardBenchOptions{Seed: 1, GridSides: []int{512, 1024}, TreeDomains: []int{131072},
		Queries: 500, TreeQueries: 4096, Runs: 3, Deltas: 64}
}

// ShardExperiment measures what EngineOptions.ShardBlock buys past the
// million-cell mark, against the monolithic path (ShardBlock = -1) on the
// same policy, workload, histogram, and noise seeds:
//
//   - Grid answers: the blocked reconstruction builds per-slab summed-area
//     tables in parallel instead of one global table serially.
//   - Grid stream deltas: the blocked SATState caps each patch at the owning
//     slab's volume, where the global table pays the full suffix box (up to
//     O(k)) or falls back to a dense rebuild — this row is the o(k)-per-delta
//     property, and its speedup holds even on one CPU.
//   - Tree compiles: per-query-block support discovery and row building fan
//     out over the pool, concatenated into a byte-identical CSR.
//
// Every cell is a median from eval.SecondsPerCall. The untimed checks fail
// the experiment past 1e-9: every answer against the monolithic answer at
// its seed, every compile against the first serial one, and after the
// deltas each maintained state against a monolithic rebuild. On the integer
// histograms used here the agreement is in fact exact.
func ShardExperiment(o ShardBenchOptions) ([]*eval.Table, error) {
	grid := &eval.Table{
		Title: fmt.Sprintf("Domain sharding: grid answers and stream deltas, blocked vs monolithic (%d queries, %d deltas, %d runs)",
			o.Queries, o.Deltas, o.Runs),
		Metric: "median seconds per operation / monolithic-vs-sharded speedup",
		Columns: []string{"unsharded s/answer", "sharded s/answer", "answer speedup",
			"unsharded s/delta", "sharded s/delta", "patch speedup"},
	}
	src := blowfish.NewSource(o.Seed + 1700)
	for _, side := range o.GridSides {
		if err := runGridShardScenario(grid, side, o, src); err != nil {
			return nil, err
		}
	}
	tree := &eval.Table{
		Title: fmt.Sprintf("Domain sharding: tree compile, blocked vs serial construction (%d queries, %d runs)",
			o.TreeQueries, o.Runs),
		Metric:  "median seconds per compile / serial-vs-sharded speedup",
		Columns: []string{"serial s/compile", "sharded s/compile", "compile speedup"},
	}
	for _, k := range o.TreeDomains {
		if err := runTreeShardScenario(tree, k, o, src); err != nil {
			return nil, err
		}
	}
	return []*eval.Table{grid, tree}, nil
}

// runGridShardScenario times one side×side grid under both engines and
// appends a row. The shard block is k/8 cells — 8 slabs at every scale, so
// quick CI sizes exercise the same code path as the million-cell run.
func runGridShardScenario(t *eval.Table, side int, o ShardBenchOptions, src *blowfish.Source) error {
	k := side * side
	label := fmt.Sprintf("grid %dx%d (k=%d)", side, side, k)
	block := max(k/8, 1)
	pol := blowfish.GridPolicy(side)
	w := blowfish.RandomRangesKd([]int{side, side}, o.Queries, src.Split())

	open := func(shardBlock int) (*blowfish.Engine, *blowfish.Plan, error) {
		eng, err := blowfish.Open(pol, blowfish.EngineOptions{ShardBlock: shardBlock})
		if err != nil {
			return nil, nil, fmt.Errorf("eval: shard bench %s: %w", label, err)
		}
		pl, err := eng.Prepare(w, blowfish.Options{})
		if err != nil {
			return nil, nil, fmt.Errorf("eval: shard bench %s: %w", label, err)
		}
		return eng, pl, nil
	}
	engMono, plMono, err := open(-1)
	if err != nil {
		return err
	}
	engShard, plShard, err := open(block)
	if err != nil {
		return err
	}

	data := src.Split()
	x := make([]float64, k)
	for i := range x {
		x[i] = math.Floor(data.Uniform() * 50)
	}

	// Static answers, noise included: call i of either engine draws from
	// seed Seed + i mod Runs. The monolithic engine is timed first, so each
	// sharded answer has the monolithic answer at its seed to match.
	seeds := make([]int64, o.Runs)
	for r := range seeds {
		seeds[r] = o.Seed + int64(r)
	}
	want := make([][]float64, o.Runs)
	answer := func(engine string, pl *blowfish.Plan) eval.Timed {
		return eval.Releases(fmt.Sprintf("shard bench %s %s answer", label, engine), seeds, want, 1e-9,
			func(src *blowfish.Source) ([]float64, error) {
				return pl.AnswerWith(context.Background(), nil, x, 1.0, src)
			})
	}
	monoSec, err := eval.SecondsPerCall(o.Runs, answer("monolithic", plMono))
	if err != nil {
		return err
	}
	shardSec, err := eval.SecondsPerCall(o.Runs, answer("sharded", plShard))
	if err != nil {
		return err
	}

	// Stream deltas through both maintained states: uniform random cells,
	// where the global table's expected patch cost is O(k) and the blocked
	// table's is capped at one slab. Both replay one delta schedule.
	stMono, err := engMono.OpenStream(plMono, x, blowfish.StreamOptions{})
	if err != nil {
		return fmt.Errorf("eval: shard bench %s: %w", label, err)
	}
	stShard, err := engShard.OpenStream(plShard, x, blowfish.StreamOptions{})
	if err != nil {
		return fmt.Errorf("eval: shard bench %s: %w", label, err)
	}
	var deltas []blowfish.Delta
	patch := func(engine string, st *blowfish.Stream, applied *int) eval.Timed {
		return eval.Timed{
			Setup: func(i int) error {
				if i == len(deltas) {
					deltas = append(deltas, blowfish.Delta{Cells: []int{data.Intn(k)}, Values: []float64{math.Floor(data.Uniform()*5) + 1}})
				}
				return nil
			},
			Run: func(i int) error {
				*applied = i + 1
				if err := st.Apply(deltas[i]); err != nil {
					return fmt.Errorf("eval: shard bench %s %s delta %d: %w", label, engine, i, err)
				}
				return nil
			},
		}
	}
	var nMono, nShard int
	monoDeltaSec, err := eval.SecondsPerCall(o.Deltas, patch("monolithic", stMono, &nMono))
	if err != nil {
		return err
	}
	shardDeltaSec, err := eval.SecondsPerCall(o.Deltas, patch("sharded", stShard, &nShard))
	if err != nil {
		return err
	}
	// Untimed checks covering every delta: the monolithic state against its
	// dense rebuild, and the sharded state against a monolithic rebuild over
	// the same deltas.
	rebuild := func(n int) (*blowfish.Stream, error) {
		xn := append([]float64(nil), x...)
		for _, d := range deltas[:n] {
			xn[d.Cells[0]] += d.Values[0]
		}
		return engMono.OpenStream(plMono, xn, blowfish.StreamOptions{})
	}
	ref, err := rebuild(nMono)
	if err != nil {
		return fmt.Errorf("eval: shard bench %s: %w", label, err)
	}
	if err := sameArtifacts(fmt.Sprintf("shard bench %s stream: monolithic vs rebuild", label), stMono, ref); err != nil {
		return err
	}
	if ref, err = rebuild(nShard); err != nil {
		return fmt.Errorf("eval: shard bench %s: %w", label, err)
	}
	if err := sameNoiseless(fmt.Sprintf("shard bench %s stream: sharded vs monolithic", label), stShard, ref); err != nil {
		return err
	}

	t.Rows = append(t.Rows, label)
	t.Cells = append(t.Cells, []float64{
		monoSec, shardSec, monoSec / shardSec,
		monoDeltaSec, shardDeltaSec, monoDeltaSec / shardDeltaSec,
	})
	return nil
}

// runTreeShardScenario times the tree strategy compile with construction
// sharding (block = queries/8) against the serial build and appends a row.
// Every compile must answer like the first serial one.
func runTreeShardScenario(t *eval.Table, k int, o ShardBenchOptions, src *blowfish.Source) error {
	label := fmt.Sprintf("tree k=%d", k)
	block := max(o.TreeQueries/8, 1)
	pol := blowfish.LinePolicy(k)
	w := blowfish.RandomRanges1D(k, o.TreeQueries, src.Split())
	warmup := blowfish.RandomRanges1D(k, 1, src.Split())
	x := make([]float64, k)
	data := src.Split()
	for i := range x {
		x[i] = math.Floor(data.Uniform() * 20)
	}
	var want []float64
	// Each call times the strategy compile alone: its untimed setup opens a
	// fresh engine (compiles are cached per engine) and warms the shared
	// policy transform with a 1-query Prepare, so the timed Prepare measures
	// only the per-query support discovery and CSR construction being
	// sharded.
	compile := func(engine string, shardBlock int) eval.Timed {
		var eng *blowfish.Engine
		var pl *blowfish.Plan
		fail := func(i int, err error) error {
			return fmt.Errorf("eval: shard bench %s %s compile %d: %w", label, engine, i, err)
		}
		return eval.Timed{
			Setup: func(i int) (err error) {
				if eng, err = blowfish.Open(pol, blowfish.EngineOptions{ShardBlock: shardBlock}); err == nil {
					_, err = eng.Prepare(warmup, blowfish.Options{})
				}
				if err != nil {
					return fail(i, err)
				}
				return nil
			},
			Run: func(i int) (err error) {
				if pl, err = eng.Prepare(w, blowfish.Options{}); err != nil {
					return fail(i, err)
				}
				return nil
			},
			Check: func(i int) error {
				got, err := pl.AnswerWith(context.Background(), nil, x, 0.5, blowfish.NewSource(o.Seed))
				if err != nil {
					return fail(i, err)
				}
				if want == nil {
					want = got
					return nil
				}
				return eval.Within(fmt.Sprintf("shard bench %s %s compile %d vs serial", label, engine, i), got, want, 1e-9)
			},
		}
	}
	serialSec, err := eval.SecondsPerCall(o.Runs, compile("serial", -1))
	if err != nil {
		return err
	}
	shardSec, err := eval.SecondsPerCall(o.Runs, compile("sharded", block))
	if err != nil {
		return err
	}
	t.Rows = append(t.Rows, label)
	t.Cells = append(t.Cells, []float64{serialSec, shardSec, serialSec / shardSec})
	return nil
}
