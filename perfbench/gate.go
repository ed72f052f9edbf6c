package main

import (
	"context"
	"fmt"
	"slices"

	"rankcube"
)

// worseResult orders results as core.WorseResult does: a higher score is
// worse, and among equal scores the higher tuple id is worse.
func worseResult(a, b rankcube.Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.TID > b.TID
}

// checkAnswers runs the first n queries of a gate list through Query and
// BaselineQuery and requires the same tuple ids and scores, best first,
// with ties broken as core.WorseResult breaks them. A mismatch is an
// errIncorrect.
func checkAnswers(ctx context.Context, a answerer, gate opList, n int) error {
	for i := range int64(n) {
		o := gate.query(i)
		f := o.fn()
		got, err := a.Query(ctx, o.cond, f, o.k)
		if err != nil {
			return fmt.Errorf("gate query %d: %w", i, err)
		}
		want, err := a.BaselineQuery(ctx, o.cond, f, o.k)
		if err != nil {
			return fmt.Errorf("gate baseline %d: %w", i, err)
		}
		slices.SortStableFunc(want, func(x, y rankcube.Result) int {
			switch {
			case worseResult(x, y):
				return 1
			case worseResult(y, x):
				return -1
			}
			return 0
		})
		if err := sameAnswer(got, want); err != nil {
			return errIncorrect{fmt.Errorf("gate query %d (cond %v, k %d): %w", i, o.cond, o.k, err)}
		}
	}
	return nil
}

// errIncorrect marks answers that failed the correctness gate.
type errIncorrect struct{ err error }

func (e errIncorrect) Error() string { return "correctness gate: " + e.err.Error() }

func sameAnswer(got, want []rankcube.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, baseline has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].TID != want[i].TID || got[i].Score != want[i].Score {
			return fmt.Errorf("result %d is tid %d score %v, baseline has tid %d score %v",
				i, got[i].TID, got[i].Score, want[i].TID, want[i].Score)
		}
	}
	return nil
}
