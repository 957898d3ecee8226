package eval

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/privacylab/blowfish/internal/noise"
)

// minTimedSeconds is the least wall-clock time the timed calls of one
// measurement add up to. Below it a single scheduler or GC pause can move a
// gated speedup by several times.
const minTimedSeconds = 0.1

// now is the clock behind SecondsPerCall; tests replace it.
var now = time.Now

// Timed is one measured operation. Call i runs Setup(i), then Run(i) under
// the clock, then Check(i). Setup and Check are optional and never timed, so
// per-call preparation and equivalence checks stay out of every timed cell.
type Timed struct {
	Setup, Run, Check func(i int) error
}

// SecondsPerCall is the one timing routine behind every timed column of the
// experiments (planreuse, sparse, fig10spectral, stream, shard). Call 0 is
// an untimed warm-up (its Check still runs). Calls 1, 2, ... are timed until
// at least minCalls of them have run and together they take at least
// minTimedSeconds. It returns the median seconds of the timed calls, which
// one slow outlier cannot move.
func SecondsPerCall(minCalls int, op Timed) (float64, error) {
	var secs []float64
	var total float64
	for i := 0; i == 0 || len(secs) < minCalls || total < minTimedSeconds; i++ {
		if op.Setup != nil {
			if err := op.Setup(i); err != nil {
				return 0, err
			}
		}
		start := now()
		if err := op.Run(i); err != nil {
			return 0, err
		}
		if d := now().Sub(start).Seconds(); i > 0 {
			secs = append(secs, d)
			total += d
		}
		if op.Check != nil {
			if err := op.Check(i); err != nil {
				return 0, err
			}
		}
	}
	sort.Float64s(secs)
	n := len(secs)
	return (secs[(n-1)/2] + secs[n/2]) / 2, nil
}

// Releases is the Timed of one release path: call i draws its noise from
// seeds[i mod len(seeds)], and its untimed check compares the answers with
// want at that seed to within tol. A call that finds its want entry empty
// fills it instead, so the path timed first is the reference (its later
// calls check its determinism) and every release of a path timed after it
// is checked against the reference at the same seed.
func Releases(what string, seeds []int64, want [][]float64, tol float64, release func(*noise.Source) ([]float64, error)) Timed {
	var src *noise.Source
	var got []float64
	return Timed{
		Setup: func(i int) error {
			src = noise.NewSource(seeds[i%len(seeds)])
			return nil
		},
		Run: func(i int) (err error) {
			if got, err = release(src); err != nil {
				return fmt.Errorf("eval: %s release %d: %w", what, i, err)
			}
			return nil
		},
		Check: func(i int) error {
			ref := &want[i%len(seeds)]
			if *ref == nil {
				*ref = got
				return nil
			}
			return Within(fmt.Sprintf("%s release %d", what, i), got, *ref, tol)
		},
	}
}

// Within is the equivalence gate every timed experiment's check ends in:
// any pair of values further apart than tol fails the whole experiment.
func Within(what string, got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("eval: %s: %d values vs %d", what, len(got), len(want))
	}
	for i := range want {
		if diff := math.Abs(got[i] - want[i]); !(diff <= tol) {
			return fmt.Errorf("eval: %s [%d]: %v vs %v (|diff| %g > %g)", what, i, got[i], want[i], diff, tol)
		}
	}
	return nil
}
