package strategy

import (
	"errors"
	"math"
	"testing"

	"github.com/privacylab/blowfish/internal/core"
	"github.com/privacylab/blowfish/internal/noise"
	"github.com/privacylab/blowfish/internal/par"
	"github.com/privacylab/blowfish/internal/policy"
	"github.com/privacylab/blowfish/internal/workload"
)

func compileLine(t *testing.T, k int, w *workload.Workload) *Prepared {
	t.Helper()
	tr, err := core.New(policy.Line(k))
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileTree("blowfish(tree)", tr, 1, LaplaceEstimator, w)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAnswerBatchMatchesSequential: with pre-split sources, the pooled batch
// is bitwise identical to sequential Answer calls at every pool width.
func TestAnswerBatchMatchesSequential(t *testing.T) {
	const k, releases = 48, 7
	p := compileLine(t, k, workload.AllRanges1D(k))
	xs := make([][]float64, releases)
	for i := range xs {
		xs[i] = make([]float64, k)
		xs[i][i*5%k] = float64(i + 1)
	}
	seqSrc := noise.NewSource(5)
	want := make([][]float64, releases)
	for i := range xs {
		got, err := p.Answer(xs[i], 0.7, seqSrc.Split())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = got
	}
	for _, pool := range []*par.Pool{nil, par.NewPool(1), par.NewPool(4)} {
		batchSrc := noise.NewSource(5)
		srcs := make([]*noise.Source, releases)
		for i := range srcs {
			srcs[i] = batchSrc.Split()
		}
		got, err := p.AnswerBatch(xs, 0.7, srcs, pool, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for j := range want[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("pool %v release %d query %d: %v != %v", pool, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// TestAnswerBatchStop: the stop hook is polled per release and its error
// aborts the batch — this is what bounds Plan.AnswerBatchContext by a
// deadline between releases.
func TestAnswerBatchStop(t *testing.T) {
	const k = 16
	p := compileLine(t, k, workload.Identity(k))
	xs := make([][]float64, 4)
	srcs := make([]*noise.Source, 4)
	for i := range xs {
		xs[i] = make([]float64, k)
		srcs[i] = noise.NewSource(int64(i))
	}
	sentinel := errors.New("deadline")
	calls := 0
	stop := func() error {
		calls++
		if calls > 2 {
			return sentinel
		}
		return nil
	}
	// nil pool runs serially, so the stop counter needs no locking.
	if _, err := p.AnswerBatch(xs, 0.5, srcs, nil, stop); !errors.Is(err, sentinel) {
		t.Fatalf("stopped batch: %v, want sentinel", err)
	}
	if _, err := p.AnswerBatch(xs[:3], 0.5, srcs[:3], nil, nil); err != nil {
		t.Fatalf("nil stop: %v", err)
	}
	// Mismatched noise streams are a programming error, reported as such.
	if _, err := p.AnswerBatch(xs, 0.5, srcs[:2], nil, nil); err == nil {
		t.Fatal("expected source-count mismatch error")
	}
}
