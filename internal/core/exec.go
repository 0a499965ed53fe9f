package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Exec selects the execution strategy for the engine's executors.
//
// The zero value runs the classic sequential engine. A positive
// Workers count fans the per-mask bounds and verification work out
// across that many goroutines; a negative count sizes the pool to
// runtime.GOMAXPROCS(0). Filter and AggTopK produce results and stats
// identical to the sequential engine under any worker count; TopK
// produces identical results, but its verification stage additionally
// refines τ as exact scores land, so it may skip loads the sequential
// engine performs (the skips are counted as RejectedByBounds).
type Exec struct {
	Workers int
}

// ExecParallel returns the default worker-pool configuration:
// GOMAXPROCS workers.
func ExecParallel() Exec { return Exec{Workers: -1} }

// ExecFor maps a user-facing workers knob (as exposed by
// Options.Workers and the CLI -workers flags) to an execution
// strategy: 0 means GOMAXPROCS, 1 forces the sequential engine, any
// other count is used as-is.
func ExecFor(workers int) Exec {
	switch workers {
	case 0:
		return ExecParallel()
	case 1:
		return Exec{}
	default:
		return Exec{Workers: workers}
	}
}

// EffectiveWorkers reports the resolved pool size (1 means the
// sequential engine).
func (e Exec) EffectiveWorkers() int { return e.workers() }

// workers resolves the effective pool size.
func (e Exec) workers() int {
	switch {
	case e.Workers == 0:
		return 1
	case e.Workers < 0:
		return runtime.GOMAXPROCS(0)
	default:
		return e.Workers
	}
}

// minParallelTargets is the smallest input for which spinning up the
// pool is worth the goroutine overhead.
const minParallelTargets = 16

// fanOut runs fn(worker, i) for every i in [0, n) across the given
// number of workers, handing out contiguous chunks from an atomic
// cursor. It returns the error of the lowest-indexed worker that
// failed (other workers stop at their next chunk boundary); ctx
// cancellation is polled per chunk.
func fanOut(ctx context.Context, workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	chunk := int64(max(1, min(64, n/(workers*4))))
	var next atomic.Int64
	var failed atomic.Bool
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[w] = err
					failed.Store(true)
					return
				}
				start := int(next.Add(chunk) - chunk)
				if start >= n {
					return
				}
				for i := start; i < min(start+int(chunk), n); i++ {
					if err := fn(w, i); err != nil {
						errs[w] = err
						failed.Store(true)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forEach runs fn(w, i, st) for every i in [0, n): on the env's worker
// pool when it has one and n is worth it, otherwise in order as worker
// 0, polling ctx. Each pool worker accumulates a private Stats, merged
// into the returned total; it bumps its slot once per mask, so the
// slots are padded by a full cache line and no line bounces between
// cores in the hot path. fn never sets Targets (the caller sets it once
// for the whole query).
func (e *Env) forEach(ctx context.Context, n int, fn func(w, i int, st *Stats) error) (Stats, error) {
	var st Stats
	if !e.pooled(n) {
		for i := 0; i < n; i++ {
			if err := CheckCtx(ctx, i); err != nil {
				return st, err
			}
			if err := fn(0, i, &st); err != nil {
				return st, err
			}
		}
		return st, nil
	}
	wstats := make([]struct {
		Stats
		_ [64]byte
	}, e.Exec.workers())
	err := fanOut(ctx, len(wstats), n, func(w, i int) error { return fn(w, i, &wstats[w].Stats) })
	for w := range wstats {
		st.Merge(wstats[w].Stats)
	}
	return st, err
}

// pooled reports whether forEach runs n items on the worker pool.
func (e *Env) pooled(n int) bool { return e.Exec.workers() > 1 && n >= minParallelTargets }

// TauTracker maintains the k-th best exact score seen so far as the
// threshold of its TauGate. For Desc it keeps a min-heap of the k
// largest scores (the root is τ); for Asc a max-heap of the k smallest.
// A candidate whose upper bound is strictly worse than τ cannot tie
// with — let alone beat — any of the k tracked candidates, so skipping
// it can never change the top-k result. The top-k driver keeps one per
// query: every exact score, local or from any shard, lands here, and
// the gate is what local workers and remote nodes skip by.
type TauTracker struct {
	TauGate
	mu sync.Mutex
	k  int
	h  []int64
}

func NewTauTracker(k int, ord Order) *TauTracker {
	return &TauTracker{TauGate: TauGate{ord: ord}, k: k, h: make([]int64, 0, k)}
}

// rootWorse reports whether a ranks strictly worse than b (the heap
// root is the worst retained score).
func (t *TauTracker) rootWorse(a, b int64) bool {
	if t.ord == Desc {
		return a < b
	}
	return a > b
}

// Add lands one exact score. Each candidate's score must be added at
// most once: a duplicate add would make the heap count one candidate
// twice and tighten τ beyond what the landed scores justify.
func (t *TauTracker) Add(s int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.h) < t.k {
		t.h = append(t.h, s)
		for i := len(t.h) - 1; i > 0; {
			p := (i - 1) / 2
			if !t.rootWorse(t.h[i], t.h[p]) {
				break
			}
			t.h[i], t.h[p] = t.h[p], t.h[i]
			i = p
		}
		if len(t.h) == t.k {
			t.Set(t.h[0])
		}
		return
	}
	if !t.rootWorse(t.h[0], s) {
		return
	}
	t.h[0] = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < len(t.h) && t.rootWorse(t.h[l], t.h[worst]) {
			worst = l
		}
		if r < len(t.h) && t.rootWorse(t.h[r], t.h[worst]) {
			worst = r
		}
		if worst == i {
			break
		}
		t.h[i], t.h[worst] = t.h[worst], t.h[i]
		i = worst
	}
	t.Set(t.h[0])
}

// IndexAll builds a CHI for every listed mask not yet present in ix,
// fanning mask loads and builds (through ix's one builder) across the
// pool. It returns how many masks were newly indexed. This is the eager
// ("vanilla MaskSearch") construction path; the incremental mode
// instead grows the index one Observe at a time.
func IndexAll(ctx context.Context, loader MaskLoader, ix *MemoryIndex, ids []int64, ex Exec) (int, error) {
	var built atomic.Int64
	do := func(id int64) error {
		if chi, err := ix.ChiFor(id); err != nil {
			return err
		} else if chi != nil {
			return nil
		}
		m, err := loader.LoadMask(id)
		if err != nil {
			return err
		}
		chi, err := ix.build(m)
		if r, ok := loader.(MaskRecycler); ok {
			r.ReleaseMask(m)
		}
		if err != nil {
			return err
		}
		ix.Add(id, chi)
		built.Add(1)
		return nil
	}
	if w := ex.workers(); w > 1 && len(ids) >= minParallelTargets {
		err := fanOut(ctx, w, len(ids), func(_, i int) error { return do(ids[i]) })
		return int(built.Load()), err
	}
	for i, id := range ids {
		if err := CheckCtx(ctx, i); err != nil {
			return int(built.Load()), err
		}
		if err := do(id); err != nil {
			return int(built.Load()), err
		}
	}
	return int(built.Load()), nil
}
