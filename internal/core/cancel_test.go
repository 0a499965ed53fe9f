package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

// cancelLoader cancels a context after a fixed number of loads and
// tracks outstanding (loaded but not yet released) masks, so the
// cancellation tests can assert that every in-flight mask was handed
// back to the loader before the executor returned.
type cancelLoader struct {
	inner       *syncLoader
	cancel      context.CancelFunc
	after       int64
	loads       atomic.Int64
	outstanding atomic.Int64
}

func (l *cancelLoader) LoadMask(id int64) (*Mask, error) {
	if l.loads.Add(1) == l.after {
		l.cancel()
	}
	m, err := l.inner.LoadMask(id)
	if err == nil {
		l.outstanding.Add(1)
	}
	return m, err
}

func (l *cancelLoader) ReleaseMask(*Mask) { l.outstanding.Add(-1) }

// TestCancelMidVerification drives every executor into its
// verification stage with no index (all targets must load), cancels
// the context after a handful of loads, and requires (a) the executor
// returns ctx.Err() without draining the remaining targets and (b)
// zero masks remain unreleased.
func TestCancelMidVerification(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const n = 600
	inner := &syncLoader{masks: map[int64]*Mask{}}
	ids := make([]int64, 0, n)
	for i := 1; i <= n; i++ {
		inner.masks[int64(i)] = randomMask(rng, 8, 8)
		ids = append(ids, int64(i))
	}
	groups := []Group{{Key: 1, IDs: ids[:n/2]}, {Key: 2, IDs: ids[n/2:]}}
	terms := []CPTerm{{Region: FixedRegion(Rect{X1: 8, Y1: 8}), Range: ValueRange{Lo: 0.3, Hi: 1.0}}}
	pred := Cmp{T: 0, Op: OpGt, C: 10}

	runs := []struct {
		name string
		run  func(ctx context.Context, env *Env) error
	}{
		{"Filter", func(ctx context.Context, env *Env) error {
			_, _, err := Filter(ctx, env, ids, terms, pred)
			return err
		}},
		{"TopK", func(ctx context.Context, env *Env) error {
			_, _, err := TopK(ctx, env, ids, terms, 0, 5, Desc)
			return err
		}},
		{"AggTopK", func(ctx context.Context, env *Env) error {
			_, _, err := AggTopK(ctx, env, groups, terms, 0, Mean, 1, Desc)
			return err
		}},
		{"ExecBatch", func(ctx context.Context, env *Env) error {
			_, err := runBatch(ctx, env, []batchQuery{
				{kind: "filter", targets: ids, terms: terms, pred: pred},
				{kind: "topk", targets: ids, terms: terms, k: 5, order: Desc},
			})
			return err
		}},
	}
	for _, tc := range runs {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				loader := &cancelLoader{inner: inner, cancel: cancel, after: 5}
				env := &Env{Loader: loader, Exec: Exec{Workers: workers}}
				err := tc.run(ctx, env)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled %s returned %v, want context.Canceled", tc.name, err)
				}
				if loads := loader.loads.Load(); loads >= int64(len(ids)) {
					t.Fatalf("cancelled %s still performed %d loads (all %d targets)", tc.name, loads, len(ids))
				}
				if out := loader.outstanding.Load(); out != 0 {
					t.Fatalf("cancelled %s left %d masks unreleased", tc.name, out)
				}
			})
		}
	}
}
