// Command benchgate compares a freshly generated blowfishbench -json report
// against a checked-in baseline and exits nonzero when a gated metric
// regresses beyond the tolerance. It gates machine-portable ratio columns
// ("speedup", "batch ratio", "bound ratio", ...) rather than absolute
// timings or qps, which move with the host; a speedup is additionally
// skipped when the baseline timing behind it is below -min-seconds, where
// the clock rather than the code dominates.
//
// Usage:
//
//	GOMAXPROCS=1 blowfishbench -exp sparse -json BENCH_fresh.json
//	benchgate -baseline BENCH_sparse.json -current BENCH_fresh.json
//	benchgate -baseline old.json -current new.json -tolerance 0.25
//
// Experiments, tables and rows are matched by experiment id, table title and
// row label; pairs present on only one side are reported and skipped. With
// zero comparable cells the gate fails (a silently empty gate is a
// misconfigured gate), unless -allow-empty is set. Reports whose gomaxprocs
// or full_scale differ are not compared at all: benchgate exits 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "", "baseline blowfishbench -json report")
		currentPath  = flag.String("current", "", "freshly generated report to gate")
		tolerance    = flag.Float64("tolerance", 0.5, "allowed fractional regression: fail when current < baseline*(1-tolerance)")
		minSeconds   = flag.Float64("min-seconds", 1e-5, "skip speedup rows whose baseline timings are all below this (too fast to measure)")
		allowEmpty   = flag.Bool("allow-empty", false, "exit 0 even when no cells were comparable")
	)
	flag.Parse()
	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -baseline and -current are required")
		flag.Usage()
		os.Exit(2)
	}
	base, err := loadReport(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	cur, err := loadReport(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	if err := likeForLike(base, cur); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	res := gate(base, cur, *tolerance, *minSeconds)
	for _, line := range res.Log {
		fmt.Println(line)
	}
	switch {
	case len(res.Violations) > 0:
		fmt.Fprintf(os.Stderr, "benchgate: %d regression(s) beyond tolerance %.2f:\n", len(res.Violations), *tolerance)
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		os.Exit(1)
	case res.Compared == 0 && !*allowEmpty:
		fmt.Fprintln(os.Stderr, "benchgate: no comparable cells between the two reports (use -allow-empty to permit)")
		os.Exit(1)
	default:
		fmt.Printf("benchgate: OK (%d cells compared, %d skipped)\n", res.Compared, res.Skipped)
	}
}

// report mirrors the blowfishbench -json wire format (schema
// "blowfishbench/v1"), keeping only what the gate reads.
type report struct {
	Schema      string       `json:"schema"`
	GoMaxProcs  int          `json:"gomaxprocs"`
	FullScale   bool         `json:"full_scale"`
	Experiments []experiment `json:"experiments"`
}

type experiment struct {
	ID     string  `json:"id"`
	Tables []table `json:"tables"`
}

type table struct {
	Title   string   `json:"title"`
	Columns []string `json:"columns"`
	Rows    []row    `json:"rows"`
}

type row struct {
	Label string    `json:"label"`
	Cells []float64 `json:"cells"`
}

func loadReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != "blowfishbench/v1" {
		return nil, fmt.Errorf("%s: unsupported schema %q", path, r.Schema)
	}
	return &r, nil
}

// likeForLike refuses to gate a pair recorded under different conditions:
// ratios such as a dense-vs-sparse speedup move with the core count, and
// paper-scale sizes are not comparable with quick ones.
func likeForLike(base, cur *report) error {
	if base.GoMaxProcs != cur.GoMaxProcs {
		return fmt.Errorf("baseline recorded at gomaxprocs %d, current at %d: regenerate at GOMAXPROCS=%d",
			base.GoMaxProcs, cur.GoMaxProcs, base.GoMaxProcs)
	}
	if base.FullScale != cur.FullScale {
		return fmt.Errorf("baseline full_scale %v, current %v: regenerate at the baseline's scale",
			base.FullScale, cur.FullScale)
	}
	return nil
}

// result is what one gate run produced: the per-cell audit trail, the
// violations (a subset of the trail), and counts for the empty-gate check.
type result struct {
	Log        []string
	Violations []string
	Compared   int
	Skipped    int
}

// gated reports whether a column is a machine-portable higher-is-better
// ratio the gate should compare.
func gated(column string) bool {
	c := strings.ToLower(column)
	return strings.Contains(c, "speedup") || strings.Contains(c, "ratio")
}

// timing reports whether a column holds a wall-clock measurement (seconds
// per unit or milliseconds), used for the -min-seconds noise floor.
func timing(column string) bool {
	c := strings.ToLower(column)
	return strings.Contains(c, "s/") || strings.HasSuffix(c, " ms")
}

// gate compares every gated cell present in both reports. A cell fails when
// current < baseline*(1-tolerance); improvements never fail. Speedup cells
// are skipped when every baseline timing column in the row sits below
// minSeconds.
func gate(base, cur *report, tolerance, minSeconds float64) result {
	var res result
	curExp := make(map[string]experiment, len(cur.Experiments))
	for _, e := range cur.Experiments {
		curExp[e.ID] = e
	}
	for _, be := range base.Experiments {
		ce, ok := curExp[be.ID]
		if !ok {
			res.Log = append(res.Log, fmt.Sprintf("SKIP %s: experiment missing from current report", be.ID))
			continue
		}
		curTab := make(map[string]table, len(ce.Tables))
		for _, t := range ce.Tables {
			curTab[t.Title] = t
		}
		for _, bt := range be.Tables {
			ct, ok := curTab[bt.Title]
			if !ok {
				res.Log = append(res.Log, fmt.Sprintf("SKIP %s: table %q missing from current report", be.ID, bt.Title))
				continue
			}
			gateTable(&res, be.ID, bt, ct, tolerance, minSeconds)
		}
	}
	return res
}

func gateTable(res *result, id string, bt, ct table, tolerance, minSeconds float64) {
	curRow := make(map[string][]float64, len(ct.Rows))
	for _, r := range ct.Rows {
		curRow[r.Label] = r.Cells
	}
	curCol := make(map[string]int, len(ct.Columns))
	for i, c := range ct.Columns {
		curCol[c] = i
	}
	for _, br := range bt.Rows {
		cc, ok := curRow[br.Label]
		if !ok {
			res.Log = append(res.Log, fmt.Sprintf("SKIP %s %q: row missing from current report", id, br.Label))
			continue
		}
		// The noise floor: does any baseline timing in this row clear
		// -min-seconds? If none does, speedups here are clock jitter.
		measurable := false
		for i, col := range bt.Columns {
			if timing(col) && i < len(br.Cells) && br.Cells[i] >= minSeconds {
				measurable = true
				break
			}
		}
		for i, col := range bt.Columns {
			if !gated(col) || i >= len(br.Cells) {
				continue
			}
			j, ok := curCol[col]
			if !ok || j >= len(cc) {
				res.Log = append(res.Log, fmt.Sprintf("SKIP %s %q %q: column missing from current report", id, br.Label, col))
				continue
			}
			bv, cv := br.Cells[i], cc[j]
			cell := fmt.Sprintf("%s %q %q: baseline %.4g current %.4g", id, br.Label, col, bv, cv)
			switch {
			case strings.Contains(strings.ToLower(col), "speedup") && !measurable:
				res.Skipped++
				res.Log = append(res.Log, "SKIP "+cell+fmt.Sprintf(" (baseline timings below %g s)", minSeconds))
			case math.IsNaN(bv) || math.IsInf(bv, 0) || bv <= 0:
				res.Skipped++
				res.Log = append(res.Log, "SKIP "+cell+" (baseline not positive finite)")
			case math.IsNaN(cv) || cv < bv*(1-tolerance):
				res.Compared++
				res.Violations = append(res.Violations, cell)
				res.Log = append(res.Log, "FAIL "+cell)
			default:
				res.Compared++
				res.Log = append(res.Log, "PASS "+cell)
			}
		}
	}
}
