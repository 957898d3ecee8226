// Command blowfishbench regenerates the tables and figures of "Design of
// Policy-Aware Differentially Private Algorithms" (Haney, Machanavajjhala,
// Ding; VLDB 2016) and the serving benchmarks, and gates the checked-in
// benchmark baselines. README "Running experiments" indexes the experiment
// ids.
//
// Usage:
//
//	blowfishbench -exp all                  # everything, quick sizes
//	blowfishbench -exp fig8c -full          # one panel at paper scale
//	blowfishbench -exp fig8,fig9            # the Section 6 sweeps
//	blowfishbench -exp fig10a,fig10b,fig3,table1
//	blowfishbench -exp fig3 -parallel 8     # 8 measurement workers
//	blowfishbench -exp all -json BENCH_eval.json
//	blowfishbench -gate BENCH_sparse.json   # rerun a baseline and gate it
//
// fig8 and fig9 alone run all four workloads at both of that figure's ε
// values. Results are deterministic for a fixed -seed at every -parallel
// setting: experiment noise streams are pre-split in a fixed serial order
// before work fans out.
//
// -gate BASELINE reads a -json report and reruns its experiments under the
// settings it records: GOMAXPROCS, parallelism, seed and scale. It then
// compares the machine-portable ratio columns (those naming a speedup or a
// ratio) row by row and exits 1 when a fresh value falls below
// baseline×(1-tolerance), or when no cell was comparable. It exits 2 on an
// unreadable baseline, on a GOMAXPROCS it cannot reproduce, and when any
// flag that would change those settings is given.
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
	"github.com/privacylab/blowfish/internal/par"
	"github.com/privacylab/blowfish/internal/servebench"
	"github.com/privacylab/blowfish/internal/strategy"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "comma-separated experiment ids (see doc)")
		full      = flag.Bool("full", false, "paper-scale sizes (k=4096, 10000 queries, 5 runs)")
		seed      = flag.Int64("seed", 1, "experiment seed")
		runs      = flag.Int("runs", 0, "override repetition count")
		queries   = flag.Int("queries", 0, "override random query count")
		parallel  = flag.Int("parallel", 0, "worker count for experiments and linalg kernels (0 = one per CPU, 1 = serial)")
		jsonOut   = flag.String("json", "", "also write a machine-readable benchmark report (e.g. BENCH_eval.json)")
		gatePath  = flag.String("gate", "", "rerun this baseline report at its recorded settings and gate its ratio columns")
		tolerance = flag.Float64("tolerance", 0.5, "with -gate: allowed fractional regression of a ratio column")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = []string{"table1", "fig3", "fig8", "fig9", "fig10a", "fig10b", "fig10spectral", "planreuse", "sparse", "stream", "shard"}
	}
	var base *benchReport
	if *gatePath != "" {
		base = loadBaseline(*gatePath, set)
		ids = nil
		for _, e := range base.Experiments {
			ids = append(ids, e.ID)
		}
		*full, *seed, *parallel = base.FullScale, base.Seed, base.Parallelism
	}
	linalg.SetParallelism(*parallel)
	opts := eval.Quick()
	if *full {
		opts = eval.Defaults()
	}
	opts.Seed, opts.Parallelism = *seed, *parallel
	if *runs > 0 {
		opts.Runs = *runs
	}
	if *queries > 0 {
		opts.Queries = *queries
	}
	report, err := runReport(ids, opts, *full, os.Stdout)
	if err != nil {
		fail(1, err)
	}
	if *jsonOut != "" {
		if err := writeReport(*jsonOut, report); err != nil {
			fail(1, err)
		}
	}
	if base != nil {
		os.Exit(gateExit(*gatePath, base, report, *tolerance))
	}
}

func fail(code int, msg any) {
	fmt.Fprintf(os.Stderr, "blowfishbench: %v\n", msg)
	os.Exit(code)
}

// runReport runs each experiment id in order, streaming its tables to out,
// and returns the -json report.
func runReport(ids []string, opts eval.Options, full bool, out io.Writer) (*benchReport, error) {
	report := &benchReport{
		Schema:      "blowfishbench/v1",
		Seed:        opts.Seed,
		Parallelism: opts.Parallelism,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		FullScale:   full,
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		compilesBefore := strategy.Compilations()
		tables, err := run(id, opts, full, out)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		report.Experiments = append(report.Experiments, benchRecord{
			ID: id, Seconds: time.Since(start).Seconds(),
			Compilations: strategy.Compilations() - compilesBefore,
			Tables:       tables,
		})
	}
	return report, nil
}

// loadBaseline reads the -gate baseline and applies its GOMAXPROCS. It
// exits 2 on a flag that would override the baseline's settings, on an
// unreadable baseline, and when the shared pool does not come out at the
// baseline's GOMAXPROCS.
func loadBaseline(path string, set map[string]bool) *benchReport {
	for _, name := range []string{"exp", "full", "seed", "runs", "queries", "parallel"} {
		if set[name] {
			fail(2, fmt.Sprintf("-gate reruns the baseline's own settings; -%s is not allowed", name))
		}
	}
	base, err := loadReport(path)
	if err != nil {
		fail(2, err)
	}
	// The shared worker pool sizes itself from GOMAXPROCS at first use, so
	// this must come before anything touches it.
	runtime.GOMAXPROCS(base.GoMaxProcs)
	if got := par.Shared().Size(); got != base.GoMaxProcs {
		fail(2, fmt.Sprintf("%s was recorded at gomaxprocs %d; this run has %d workers", path, base.GoMaxProcs, got))
	}
	return base
}

// gateExit prints the gate's audit trail of fresh against base and returns
// the exit code: 1 on a regression beyond tolerance or an empty gate.
func gateExit(path string, base, fresh *benchReport, tolerance float64) int {
	res := gate(base, fresh, tolerance)
	for _, line := range res.Log {
		fmt.Println(line)
	}
	switch {
	case len(res.Violations) > 0:
		fmt.Fprintf(os.Stderr, "blowfishbench: %s: %d regression(s) beyond tolerance %.2f (FAIL lines above)\n", path, len(res.Violations), tolerance)
		return 1
	case res.Compared == 0:
		fmt.Fprintf(os.Stderr, "blowfishbench: %s: no comparable cells\n", path)
		return 1
	}
	fmt.Printf("blowfishbench: %s OK (%d cells compared, %d skipped)\n", path, res.Compared, res.Skipped)
	return 0
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
	// Compilations counts strategy compilations during the experiment.
	Compilations int64         `json:"compilations"`
	Tables       []*eval.Table `json:"tables"`
}

func loadReport(path string) (*benchReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchReport
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != "blowfishbench/v1" {
		return nil, fmt.Errorf("%s: unsupported schema %q", path, r.Schema)
	}
	return &r, nil
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
	many := func(tabs []*eval.Table, err error) error {
		for _, t := range tabs {
			if err == nil {
				fmt.Fprintln(out, t.String())
				tables = append(tables, t)
			}
		}
		return err
	}
	one := func(t *eval.Table, err error) error { return many([]*eval.Table{t}, err) }
	var err error
	switch {
	case id == "table1":
		err = one(eval.Table1Experiment(opts))
	case id == "fig3":
		o := eval.QuickFig3()
		if full {
			o = eval.DefaultFig3()
		}
		o.Parallelism = opts.Parallelism
		err = many(eval.Fig3Experiment(o))
	case id == "fig10a":
		err = one(eval.SVD1DExperiment(fig10Options(full, opts.Parallelism)))
	case id == "fig10b":
		err = one(eval.SVD2DExperiment(fig10Options(full, opts.Parallelism)))
	case id == "fig10spectral":
		o := eval.QuickFig10Spectral()
		if full {
			o = eval.DefaultFig10Spectral()
		}
		err = one(eval.Fig10SpectralExperiment(o))
	case id == "planreuse":
		err = one(eval.PlanReuseExperiment(opts))
	case id == "sparse":
		err = one(eval.SparseAnswerExperiment(opts))
	case id == "stream":
		o := servebench.QuickStreamBench()
		if full {
			o = servebench.DefaultStreamBench()
		}
		o.Seed = opts.Seed
		err = one(servebench.StreamExperiment(o))
	case id == "shard":
		o := servebench.QuickShardBench()
		if full {
			o = servebench.DefaultShardBench()
		}
		o.Seed = opts.Seed
		err = many(servebench.ShardExperiment(o))
	case id == "fig8" || id == "fig9":
		for _, eps := range panelEps[id] {
			for _, task := range []string{"2d", "hist", "1dg1", "1dg4"} {
				if err == nil {
					err = one(runPanel(task, eps, opts))
				}
			}
		}
	case strings.HasPrefix(id, "fig8") || strings.HasPrefix(id, "fig9"):
		var eps float64
		var task string
		if eps, task, err = panelFor(id[:4], id[4:]); err == nil {
			err = one(runPanel(task, eps, opts))
		}
	default:
		err = fmt.Errorf("unknown experiment id %q", id)
	}
	if err != nil {
		return nil, err
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
