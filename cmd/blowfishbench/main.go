// Command blowfishbench regenerates the tables and figures of "Design of
// Policy-Aware Differentially Private Algorithms" (Haney, Machanavajjhala,
// Ding; VLDB 2016). Each experiment id names a paper artifact; see DESIGN.md
// for the full index.
//
// Usage:
//
//	blowfishbench -exp all                  # everything, quick sizes
//	blowfishbench -exp fig8c -full          # one panel at paper scale
//	blowfishbench -exp fig8,fig9            # the Section 6 sweeps
//	blowfishbench -exp fig10a,fig10b,fig3,table1
//	blowfishbench -exp fig3 -parallel 8     # 8 measurement workers
//	blowfishbench -exp all -json BENCH_eval.json
//
// Experiment ids: table1, fig3, fig10a, fig10b, planreuse, sparse (the
// dense-vs-sparse answer-path timing sweep), stream (incremental stream
// maintenance vs full recompile per delta batch, equivalence asserted at
// 1e-9), shard (domain sharding past 10⁶ cells: blocked vs monolithic grid
// answers, stream deltas, and tree compiles, equivalence asserted at 1e-9
// in-loop — the -full grid tops out at 1024×1024), fig10spectral (the dense-vs-
// Lanczos lower-bound engine comparison, with equivalence asserted wherever
// the dense reference is feasible), and figNx where N∈{8,9} and x∈{a..h}
// (fig8 and fig9 alone run all four workloads at both of that figure's ε
// values). Results are deterministic for a fixed -seed at every -parallel
// setting: experiment noise streams are pre-split in a fixed serial order
// before work fans out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/privacylab/blowfish/internal/eval"
	"github.com/privacylab/blowfish/internal/linalg"
	"github.com/privacylab/blowfish/internal/servebench"
	"github.com/privacylab/blowfish/internal/strategy"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiment ids (see doc)")
		full     = flag.Bool("full", false, "paper-scale sizes (k=4096, 10000 queries, 5 runs)")
		seed     = flag.Int64("seed", 1, "experiment seed")
		runs     = flag.Int("runs", 0, "override repetition count")
		queries  = flag.Int("queries", 0, "override random query count")
		parallel = flag.Int("parallel", 0, "worker count for experiments and linalg kernels (0 = one per CPU, 1 = serial)")
		jsonOut  = flag.String("json", "", "also write a machine-readable benchmark report (e.g. BENCH_eval.json)")
	)
	flag.Parse()
	linalg.SetParallelism(*parallel)
	opts := eval.Quick()
	if *full {
		opts = eval.Defaults()
	}
	opts.Seed = *seed
	opts.Parallelism = *parallel
	if *runs > 0 {
		opts.Runs = *runs
	}
	if *queries > 0 {
		opts.Queries = *queries
	}
	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = []string{"table1", "fig3", "fig8", "fig9", "fig10a", "fig10b", "fig10spectral", "planreuse", "sparse", "stream", "shard"}
	}
	report := benchReport{
		Schema:      "blowfishbench/v1",
		Seed:        *seed,
		Parallelism: *parallel,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		FullScale:   *full,
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		compilesBefore := strategy.Compilations()
		tables, err := run(id, opts, *full, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "blowfishbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		report.Experiments = append(report.Experiments, benchRecord{
			ID: id, Seconds: time.Since(start).Seconds(),
			Compilations: strategy.Compilations() - compilesBefore,
			Tables:       tables,
		})
	}
	if *jsonOut != "" {
		if err := writeReport(*jsonOut, &report); err != nil {
			fmt.Fprintf(os.Stderr, "blowfishbench: %v\n", err)
			os.Exit(1)
		}
	}
}

// benchReport is the machine-readable output behind -json: wall-clock and the
// full rendered tables per experiment, for perf-trajectory tooling.
type benchReport struct {
	Schema      string        `json:"schema"`
	Seed        int64         `json:"seed"`
	Parallelism int           `json:"parallelism"`
	GoMaxProcs  int           `json:"gomaxprocs"`
	FullScale   bool          `json:"full_scale"`
	Experiments []benchRecord `json:"experiments"`
}

type benchRecord struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
	// Compilations counts strategy compilations during the experiment;
	// since the plan-reuse rewiring it grows with the number of grid
	// cells, not (cells × runs).
	Compilations int64         `json:"compilations"`
	Tables       []*eval.Table `json:"tables"`
}

func writeReport(path string, r *benchReport) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	return os.WriteFile(path, raw, 0o644)
}

// panelEps maps figure panels to their ε: Figure 8 uses 0.01 (top row) and
// 0.1 (bottom row); Figure 9 uses 1 and 0.001.
var panelEps = map[string][2]float64{
	"fig8": {0.01, 0.1},
	"fig9": {1, 0.001},
}

// run executes one experiment id, streaming each table to out as it is
// produced (progress feedback on long -full sweeps), and returns the tables
// for the -json report.
func run(id string, opts eval.Options, full bool, out io.Writer) ([]*eval.Table, error) {
	var tables []*eval.Table
	emit := func(t *eval.Table, err error) error {
		if err != nil {
			return err
		}
		fmt.Fprintln(out, t.String())
		tables = append(tables, t)
		return nil
	}
	switch {
	case id == "table1":
		if err := emit(eval.Table1Experiment(opts)); err != nil {
			return nil, err
		}
	case id == "fig3":
		o := eval.QuickFig3()
		if full {
			o = eval.DefaultFig3()
		}
		o.Parallelism = opts.Parallelism
		tabs, err := eval.Fig3Experiment(o)
		if err != nil {
			return nil, err
		}
		for _, t := range tabs {
			if err := emit(t, nil); err != nil {
				return nil, err
			}
		}
	case id == "fig10a":
		if err := emit(eval.SVD1DExperiment(fig10Options(full, opts.Parallelism))); err != nil {
			return nil, err
		}
	case id == "fig10b":
		if err := emit(eval.SVD2DExperiment(fig10Options(full, opts.Parallelism))); err != nil {
			return nil, err
		}
	case id == "fig10spectral":
		o := eval.QuickFig10Spectral()
		if full {
			o = eval.DefaultFig10Spectral()
		}
		if err := emit(eval.Fig10SpectralExperiment(o)); err != nil {
			return nil, err
		}
	case id == "planreuse":
		if err := emit(eval.PlanReuseExperiment(opts)); err != nil {
			return nil, err
		}
	case id == "sparse":
		if err := emit(eval.SparseAnswerExperiment(opts)); err != nil {
			return nil, err
		}
	case id == "stream":
		o := servebench.QuickStreamBench()
		if full {
			o = servebench.DefaultStreamBench()
		}
		o.Seed = opts.Seed
		if err := emit(servebench.StreamExperiment(o)); err != nil {
			return nil, err
		}
	case id == "shard":
		o := servebench.QuickShardBench()
		if full {
			o = servebench.DefaultShardBench()
		}
		o.Seed = opts.Seed
		tabs, err := servebench.ShardExperiment(o)
		if err != nil {
			return nil, err
		}
		for _, t := range tabs {
			if err := emit(t, nil); err != nil {
				return nil, err
			}
		}
	case id == "fig8" || id == "fig9":
		for _, eps := range panelEps[id] {
			for _, task := range []string{"2d", "hist", "1dg1", "1dg4"} {
				if err := emit(runPanel(task, eps, opts)); err != nil {
					return nil, err
				}
			}
		}
	case strings.HasPrefix(id, "fig8") || strings.HasPrefix(id, "fig9"):
		fig := id[:4]
		panel := id[4:]
		eps, task, err := panelFor(fig, panel)
		if err != nil {
			return nil, err
		}
		if err := emit(runPanel(task, eps, opts)); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown experiment id %q", id)
	}
	return tables, nil
}

// panelFor decodes figure panel letters: a–d are the figure's first ε,
// e–h the second; the task cycles 2D-Range, Hist, 1D-Range G¹, 1D-Range G⁴.
func panelFor(fig, panel string) (float64, string, error) {
	eps, ok := panelEps[fig]
	if !ok || len(panel) != 1 || panel[0] < 'a' || panel[0] > 'h' {
		return 0, "", fmt.Errorf("unknown panel %s%s", fig, panel)
	}
	idx := int(panel[0] - 'a')
	tasks := []string{"2d", "hist", "1dg1", "1dg4"}
	e := eps[0]
	if idx >= 4 {
		e = eps[1]
		idx -= 4
	}
	return e, tasks[idx], nil
}

func runPanel(task string, eps float64, opts eval.Options) (*eval.Table, error) {
	switch task {
	case "2d":
		return eval.Range2DExperiment(eps, opts)
	case "hist":
		return eval.HistExperiment(eps, opts)
	case "1dg1":
		return eval.Range1DG1Experiment(eps, opts)
	case "1dg4":
		return eval.Range1DG4Experiment(eps, opts)
	default:
		return nil, fmt.Errorf("unknown task %q", task)
	}
}

func fig10Options(full bool, parallel int) eval.Fig10Options {
	o := eval.QuickFig10()
	if full {
		o = eval.DefaultFig10()
	}
	o.Parallelism = parallel
	return o
}
