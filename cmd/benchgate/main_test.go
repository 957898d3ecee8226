package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func mkReport(speedup, ratio, dense float64) *report {
	return &report{
		Schema: "blowfishbench/v1",
		Experiments: []experiment{{
			ID: "sparse",
			Tables: []table{{
				Title:   "hot path",
				Columns: []string{"dense s/release", "sparse s/release", "speedup", "batch ratio"},
				Rows: []row{{
					Label: "k=512",
					Cells: []float64{dense, dense / speedup, speedup, ratio},
				}},
			}},
		}},
	}
}

func TestGatePassesWithinTolerance(t *testing.T) {
	base := mkReport(20, 0.9, 1e-3)
	cur := mkReport(12, 0.8, 1e-3) // 40% and 11% down, tolerance 0.5
	res := gate(base, cur, 0.5, 1e-5)
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
	res := gate(base, cur, 0.5, 1e-5)
	if len(res.Violations) != 1 || !strings.Contains(res.Violations[0], "speedup") {
		t.Fatalf("want one speedup violation, got %v", res.Violations)
	}
	// Improvements never fail, however large.
	res = gate(base, mkReport(500, 1.5, 1e-3), 0.5, 1e-5)
	if len(res.Violations) != 0 {
		t.Fatalf("improvement flagged as regression: %v", res.Violations)
	}
}

func TestGateMinSecondsSkipsJitterySpeedups(t *testing.T) {
	base := mkReport(20, 0.9, 1e-8) // timings far below the floor
	cur := mkReport(1, 0.9, 1e-8)   // speedup collapsed, but unmeasurable
	res := gate(base, cur, 0.5, 1e-5)
	if len(res.Violations) != 0 {
		t.Fatalf("sub-floor speedup gated: %v", res.Violations)
	}
	// The ratio column is not timing-derived and still gates.
	if res.Compared != 1 {
		t.Fatalf("compared %d cells, want 1 (ratio only)", res.Compared)
	}
	cur.Experiments[0].Tables[0].Rows[0].Cells[3] = 0.1
	res = gate(base, cur, 0.5, 1e-5)
	if len(res.Violations) != 1 || !strings.Contains(res.Violations[0], "batch ratio") {
		t.Fatalf("want one ratio violation, got %v", res.Violations)
	}
}

func TestGateSkipsUnmatchedAndDegenerate(t *testing.T) {
	base := mkReport(20, 0.9, 1e-3)
	base.Experiments = append(base.Experiments, experiment{ID: "ghost"})
	cur := mkReport(20, 0.9, 1e-3)
	cur.Experiments[0].Tables[0].Rows[0].Label = "k=9999"
	res := gate(base, cur, 0.5, 1e-5)
	if res.Compared != 0 || len(res.Violations) != 0 {
		t.Fatalf("unmatched rows compared: %+v", res)
	}
	// NaN baseline (e.g. a zero-time division) is skipped, NaN current fails.
	base = mkReport(20, 0.9, 1e-3)
	base.Experiments[0].Tables[0].Rows[0].Cells[2] = math.NaN()
	res = gate(base, mkReport(20, 0.9, 1e-3), 0.5, 1e-5)
	if len(res.Violations) != 0 || res.Compared != 1 {
		t.Fatalf("NaN baseline handled wrong: %+v", res)
	}
	cur = mkReport(20, 0.9, 1e-3)
	cur.Experiments[0].Tables[0].Rows[0].Cells[2] = math.NaN()
	res = gate(mkReport(20, 0.9, 1e-3), cur, 0.5, 1e-5)
	if len(res.Violations) != 1 {
		t.Fatalf("NaN current not flagged: %+v", res)
	}
}

func TestLikeForLikeRejectsGoMaxProcsMismatch(t *testing.T) {
	base, cur := mkReport(20, 0.9, 1e-3), mkReport(20, 0.9, 1e-3)
	base.GoMaxProcs, cur.GoMaxProcs = 1, 1
	if err := likeForLike(base, cur); err != nil {
		t.Fatalf("matching pair rejected: %v", err)
	}
	cur.GoMaxProcs = 4
	if err := likeForLike(base, cur); err == nil || !strings.Contains(err.Error(), "gomaxprocs") {
		t.Fatalf("gomaxprocs 1 vs 4 not rejected: %v", err)
	}
}

func TestLikeForLikeRejectsFullScaleMismatch(t *testing.T) {
	base, cur := mkReport(20, 0.9, 1e-3), mkReport(20, 0.9, 1e-3)
	base.FullScale = true
	if err := likeForLike(base, cur); err == nil || !strings.Contains(err.Error(), "full_scale") {
		t.Fatalf("full_scale true vs false not rejected: %v", err)
	}
}

func TestLoadReportOnCheckedInBaselines(t *testing.T) {
	for _, name := range []string{
		"BENCH_sparse.json", "BENCH_fig10spectral.json", "BENCH_stream.json", "BENCH_shard.json",
	} {
		path := filepath.Join("..", "..", name)
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("baseline %s missing from repo root: %v", name, err)
		}
		r, err := loadReport(path)
		if err != nil {
			t.Fatalf("loadReport(%s): %v", name, err)
		}
		// Self-comparison must gate at least one cell and pass: the checked-in
		// baselines stay usable as gate inputs.
		res := gate(r, r, 0, 1e-5)
		if res.Compared == 0 {
			t.Errorf("%s: no gateable cells — the CI gate over it would be empty", name)
		}
		if len(res.Violations) != 0 {
			t.Errorf("%s: self-comparison violations: %v", name, res.Violations)
		}
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
}

// baselineRef matches a checked-in baseline that a gate reads: either
// `git show HEAD:BENCH_x.json` or `-baseline BENCH_x.json`. Derived copies
// such as BENCH_x.base.json do not match.
var baselineRef = regexp.MustCompile(`(?:HEAD:|-baseline\s+)(BENCH_\w+\.json)\b`)

// TestGateBaselinesAreTracked fails when CI or the Makefile gates against a
// BENCH_*.json baseline that git does not track: such a gate can only fail.
// CI may instead delegate its gate to `make gate`, whose baselines the
// Makefile names.
func TestGateBaselinesAreTracked(t *testing.T) {
	root := filepath.Join("..", "..")
	out, err := exec.Command("git", "-C", root, "ls-files", "BENCH_*.json").Output()
	if err != nil {
		t.Skipf("not a git checkout: %v", err)
	}
	tracked := map[string]bool{}
	for _, name := range strings.Fields(string(out)) {
		tracked[name] = true
	}
	for _, file := range []string{"Makefile", filepath.Join(".github", "workflows", "ci.yml")} {
		raw, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			t.Fatal(err)
		}
		refs := baselineRef.FindAllStringSubmatch(string(raw), -1)
		delegates := file != "Makefile" && strings.Contains(string(raw), "run: make gate")
		if len(refs) == 0 && !delegates {
			t.Errorf("%s names no baseline; the pattern is stale", file)
		}
		for _, m := range refs {
			if !tracked[m[1]] {
				t.Errorf("%s gates against %s, which git ls-files does not list", file, m[1])
			}
		}
	}
}
