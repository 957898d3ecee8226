package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/privacylab/blowfish/internal/eval"
)

// TestMain lets the gate tests run this test binary as the blowfishbench
// command, so exit codes are observed exactly as a caller sees them.
func TestMain(m *testing.M) {
	if os.Getenv("BLOWFISHBENCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// blowfishbench runs the command with args and returns its exit code and
// combined output.
func blowfishbench(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BLOWFISHBENCH_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if exit, ok := err.(*exec.ExitError); ok {
		return exit.ExitCode(), string(out)
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, string(out)
}

func mkReport(speedup, ratio, dense float64) *benchReport {
	return &benchReport{
		Schema: "blowfishbench/v1",
		Experiments: []benchRecord{{
			ID: "sparse",
			Tables: []*eval.Table{{
				Title:   "hot path",
				Columns: []string{"dense s/release", "sparse s/release", "speedup", "batch ratio"},
				Rows:    []string{"k=512"},
				Cells:   [][]float64{{dense, dense / speedup, speedup, ratio}},
			}},
		}},
	}
}

func TestGatePassesWithinTolerance(t *testing.T) {
	base := mkReport(20, 0.9, 1e-3)
	cur := mkReport(12, 0.8, 1e-3) // 40% and 11% down, tolerance 0.5
	res := gate(base, cur, 0.5)
	if len(res.Violations) != 0 {
		t.Fatalf("unexpected violations: %v", res.Violations)
	}
	if res.Compared != 2 {
		t.Fatalf("compared %d cells, want 2 (speedup + ratio)", res.Compared)
	}
}

func TestGateFailsBeyondTolerance(t *testing.T) {
	base := mkReport(20, 0.9, 1e-3)
	cur := mkReport(8, 0.9, 1e-3) // speedup down 60% > 50% tolerance
	res := gate(base, cur, 0.5)
	if len(res.Violations) != 1 || !strings.Contains(res.Violations[0], "speedup") {
		t.Fatalf("want one speedup violation, got %v", res.Violations)
	}
	// Improvements never fail, however large.
	res = gate(base, mkReport(500, 1.5, 1e-3), 0.5)
	if len(res.Violations) != 0 {
		t.Fatalf("improvement flagged as regression: %v", res.Violations)
	}
}

func TestGateMinSecondsSkipsJitterySpeedups(t *testing.T) {
	base := mkReport(20, 0.9, 1e-8) // timings far below the floor
	cur := mkReport(1, 0.9, 1e-8)   // speedup collapsed, but unmeasurable
	res := gate(base, cur, 0.5)
	if len(res.Violations) != 0 {
		t.Fatalf("sub-floor speedup gated: %v", res.Violations)
	}
	// The ratio column is not timing-derived and still gates.
	if res.Compared != 1 {
		t.Fatalf("compared %d cells, want 1 (ratio only)", res.Compared)
	}
	cur.Experiments[0].Tables[0].Cells[0][3] = 0.1
	res = gate(base, cur, 0.5)
	if len(res.Violations) != 1 || !strings.Contains(res.Violations[0], "batch ratio") {
		t.Fatalf("want one ratio violation, got %v", res.Violations)
	}
}

func TestGateFailsUnmatchedAndSkipsDegenerate(t *testing.T) {
	// A baseline experiment, table or row missing from the current report
	// fails: a deleted measurement cannot leave its gate silently.
	base := mkReport(20, 0.9, 1e-3)
	base.Experiments = append(base.Experiments, benchRecord{ID: "ghost"})
	res := gate(base, mkReport(20, 0.9, 1e-3), 0.5)
	if len(res.Violations) != 1 || !strings.Contains(res.Violations[0], "ghost: experiment missing") {
		t.Fatalf("missing experiment not flagged: %+v", res)
	}
	cur := mkReport(20, 0.9, 1e-3)
	cur.Experiments[0].Tables[0].Title = "renamed"
	res = gate(mkReport(20, 0.9, 1e-3), cur, 0.5)
	if len(res.Violations) != 1 || !strings.Contains(res.Violations[0], `table "hot path" missing`) {
		t.Fatalf("missing table not flagged: %+v", res)
	}
	cur = mkReport(20, 0.9, 1e-3)
	cur.Experiments[0].Tables[0].Rows[0] = "k=9999"
	res = gate(mkReport(20, 0.9, 1e-3), cur, 0.5)
	if res.Compared != 0 || len(res.Violations) != 2 {
		t.Fatalf("missing row should fail both gated cells: %+v", res)
	}
	// A current report may carry extra experiments, tables and rows.
	res = gate(mkReport(20, 0.9, 1e-3), base, 0.5)
	if len(res.Violations) != 0 || res.Compared != 2 {
		t.Fatalf("extra current entries handled wrong: %+v", res)
	}
	// NaN baseline (e.g. a zero-time division) is skipped, even when its
	// cell is gone from the current report; NaN current fails.
	base = mkReport(20, 0.9, 1e-3)
	base.Experiments[0].Tables[0].Cells[0][2] = math.NaN()
	res = gate(base, mkReport(20, 0.9, 1e-3), 0.5)
	if len(res.Violations) != 0 || res.Compared != 1 || res.Skipped != 1 {
		t.Fatalf("NaN baseline handled wrong: %+v", res)
	}
	res = gate(base, cur, 0.5)
	if len(res.Violations) != 1 || !strings.Contains(res.Violations[0], "batch ratio") || res.Skipped != 1 {
		t.Fatalf("NaN baseline on a missing row handled wrong: %+v", res)
	}
	cur = mkReport(20, 0.9, 1e-3)
	cur.Experiments[0].Tables[0].Cells[0][2] = math.NaN()
	res = gate(mkReport(20, 0.9, 1e-3), cur, 0.5)
	if len(res.Violations) != 1 {
		t.Fatalf("NaN current not flagged: %+v", res)
	}
}

func TestLoadReportRejectsBadSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte(`{"schema":"other/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadReport(path); err == nil {
		t.Fatal("unsupported schema accepted")
	}
	if _, err := loadReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	if code, out := blowfishbench(t, "-gate", path); code != 2 {
		t.Fatalf("-gate on a bad schema exited %d, want 2:\n%s", code, out)
	}
}

// TestGateRefusesSettingFlags: -gate reruns the baseline's own settings, so
// every flag that would change them is refused before any work.
func TestGateRefusesSettingFlags(t *testing.T) {
	for _, arg := range []string{"-exp=sparse", "-full", "-seed=2", "-runs=1", "-queries=10", "-parallel=1"} {
		if code, out := blowfishbench(t, "-gate", "BENCH_missing.json", arg); code != 2 || !strings.Contains(out, "not allowed") {
			t.Errorf("-gate with %s exited %d, want 2:\n%s", arg, code, out)
		}
	}
}

// TestGateRefusesGoMaxProcsMismatch: a baseline whose GOMAXPROCS the run
// cannot reproduce (here none recorded) is not gated at all.
func TestGateRefusesGoMaxProcsMismatch(t *testing.T) {
	base := mkReport(20, 0.9, 1e-3)
	base.Experiments[0].ID = "table1"
	path := filepath.Join(t.TempDir(), "base.json")
	if err := writeReport(path, base); err != nil {
		t.Fatal(err)
	}
	if code, out := blowfishbench(t, "-gate", path); code != 2 || !strings.Contains(out, "gomaxprocs 0") {
		t.Fatalf("-gate at gomaxprocs 0 exited %d, want 2:\n%s", code, out)
	}
}

// TestGateFailsOnDoubledBaseline doubles every gated cell of the checked-in
// fig10spectral baseline and gates against that: the deterministic bound
// ratio alone must fail the gate, and the fresh report must still be
// written.
func TestGateFailsOnDoubledBaseline(t *testing.T) {
	base, err := loadReport(filepath.Join("..", "..", "BENCH_fig10spectral.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range base.Experiments[0].Tables {
		for j, col := range tab.Columns {
			if gated(col) {
				for i := range tab.Rows {
					tab.Cells[i][j] *= 2
				}
			}
		}
	}
	dir := t.TempDir()
	path, fresh := filepath.Join(dir, "base.json"), filepath.Join(dir, "fresh.json")
	if err := writeReport(path, base); err != nil {
		t.Fatal(err)
	}
	code, out := blowfishbench(t, "-gate", path, "-tolerance", "0.25", "-json", fresh)
	if code != 1 || !strings.Contains(out, `FAIL fig10spectral "1D k=64 theta=1" "bound ratio"`) {
		t.Fatalf("-gate against a doubled baseline exited %d, want 1:\n%s", code, out)
	}
	if _, err := loadReport(fresh); err != nil {
		t.Fatalf("fresh report: %v", err)
	}
}

// gateBaselines returns the Makefile's GATE_BASELINES list.
func gateBaselines(t *testing.T, root string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^GATE_BASELINES\s*=(.*)$`).FindSubmatch(raw)
	if m == nil {
		t.Fatal("Makefile defines no GATE_BASELINES")
	}
	return strings.Fields(string(m[1]))
}

// TestLoadReportOnCheckedInBaselines loads every GATE_BASELINES entry and
// gates it against itself: each must gate at least one cell and pass, or a
// gate over it would be empty.
func TestLoadReportOnCheckedInBaselines(t *testing.T) {
	root := filepath.Join("..", "..")
	baselines := gateBaselines(t, root)
	if len(baselines) == 0 {
		t.Fatal("GATE_BASELINES is empty")
	}
	for _, name := range baselines {
		r, err := loadReport(filepath.Join(root, name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		res := gate(r, r, 0)
		if res.Compared == 0 {
			t.Errorf("%s: no gateable cells — the gate over it would be empty", name)
		}
		if len(res.Violations) != 0 {
			t.Errorf("%s: self-comparison violations: %v", name, res.Violations)
		}
	}
}

// TestGateBaselinesAreTracked fails when a gated baseline is missing from
// git (a gate over it can only fail), or when a Makefile or CI line writes
// a -json report over one (a run would silently re-baseline the gate).
func TestGateBaselinesAreTracked(t *testing.T) {
	root := filepath.Join("..", "..")
	baselines := gateBaselines(t, root)
	if len(baselines) == 0 {
		t.Fatal("GATE_BASELINES is empty")
	}
	out, err := exec.Command("git", "-C", root, "ls-files", "BENCH_*.json").Output()
	if err != nil {
		t.Skipf("not a git checkout: %v", err)
	}
	tracked := map[string]bool{}
	for _, name := range strings.Fields(string(out)) {
		tracked[name] = true
	}
	gatedSet := map[string]bool{}
	for _, name := range baselines {
		gatedSet[name] = true
		if !tracked[name] {
			t.Errorf("GATE_BASELINES names %s, which git ls-files does not list", name)
		}
	}
	jsonArg := regexp.MustCompile(`-json[\s=]+(\S+)`)
	for _, file := range []string{"Makefile", filepath.Join(".github", "workflows", "ci.yml")} {
		raw, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range jsonArg.FindAllStringSubmatch(string(raw), -1) {
			if gatedSet[filepath.Base(m[1])] {
				t.Errorf("%s writes -json %s over a gate baseline", file, m[1])
			}
		}
	}
}
