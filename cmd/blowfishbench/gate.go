package main

import (
	"fmt"
	"math"
	"strings"

	"github.com/privacylab/blowfish/internal/eval"
)

// minGateSeconds is the gate's noise floor: a speedup is skipped when every
// baseline timing in its row is below it, where the clock rather than the
// code dominates.
const minGateSeconds = 1e-5

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
// per unit or milliseconds), used for the noise floor.
func timing(column string) bool {
	c := strings.ToLower(column)
	return strings.Contains(c, "s/") || strings.HasSuffix(c, " ms")
}

// gate compares every gated cell of the baseline against the current
// report, matching experiments by id, tables by title and rows by label. A
// baseline experiment, table or gated cell missing from the current report
// fails, so a deleted measurement cannot drop out of its gate silently: its
// baseline must be edited along with it. A cell fails when
// current < baseline*(1-tolerance); improvements never fail. Cells with a
// degenerate baseline (NaN, infinite or not positive) are skipped, and so
// are speedup cells whose row has every baseline timing column below
// minGateSeconds.
func gate(base, cur *benchReport, tolerance float64) result {
	var res result
	curExp := make(map[string]benchRecord, len(cur.Experiments))
	for _, e := range cur.Experiments {
		curExp[e.ID] = e
	}
	for _, be := range base.Experiments {
		ce, ok := curExp[be.ID]
		if !ok {
			res.fail(fmt.Sprintf("%s: experiment missing from current report", be.ID))
			continue
		}
		curTab := make(map[string]*eval.Table, len(ce.Tables))
		for _, t := range ce.Tables {
			curTab[t.Title] = t
		}
		for _, bt := range be.Tables {
			ct, ok := curTab[bt.Title]
			if !ok {
				res.fail(fmt.Sprintf("%s: table %q missing from current report", be.ID, bt.Title))
				continue
			}
			gateTable(&res, be.ID, bt, ct, tolerance)
		}
	}
	return res
}

// fail records a violation in the trail.
func (r *result) fail(msg string) {
	r.Violations = append(r.Violations, msg)
	r.Log = append(r.Log, "FAIL "+msg)
}

func gateTable(res *result, id string, bt, ct *eval.Table, tolerance float64) {
	for ri, label := range bt.Rows {
		bc := bt.Cells[ri]
		// The noise floor: does any baseline timing in this row clear
		// minGateSeconds? If none does, speedups here are clock jitter.
		measurable := false
		for i, col := range bt.Columns {
			measurable = measurable || timing(col) && bc[i] >= minGateSeconds
		}
		for i, col := range bt.Columns {
			if !gated(col) {
				continue
			}
			bv := bc[i]
			cell := fmt.Sprintf("%s %q %q: baseline %.4g", id, label, col, bv)
			switch {
			case strings.Contains(strings.ToLower(col), "speedup") && !measurable:
				res.Skipped++
				res.Log = append(res.Log, "SKIP "+cell+fmt.Sprintf(" (baseline timings below %g s)", minGateSeconds))
				continue
			case math.IsNaN(bv) || math.IsInf(bv, 0) || bv <= 0:
				res.Skipped++
				res.Log = append(res.Log, "SKIP "+cell+" (baseline not positive finite)")
				continue
			}
			cv, err := ct.Cell(label, col)
			if err != nil {
				res.fail(cell + ", missing from current report")
				continue
			}
			cell += fmt.Sprintf(" current %.4g", cv)
			res.Compared++
			if math.IsNaN(cv) || cv < bv*(1-tolerance) {
				res.fail(cell)
			} else {
				res.Log = append(res.Log, "PASS "+cell)
			}
		}
	}
}
