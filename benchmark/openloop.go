package main

import (
	"runtime"
	"sync"
	"time"
)

// openLoop is the outcome of one open-loop run, indexed by op.
type openLoop struct {
	// lat is completion time minus the op's due time: an op that had to
	// wait behind a stalled predecessor is charged that wait, so a stall
	// shows in every request it delayed (no coordinated omission).
	lat []time.Duration
	// late is how long after its due time the op was actually started:
	// the generator's own lateness, from sleep granularity or from every
	// in-flight slot being taken.
	late []time.Duration
	errs []error
	// elapsed is first due time to last completion.
	elapsed time.Duration
}

// sleepSlack is how far ahead of a due time the generator stops
// sleeping and starts yielding: time.Sleep overshoots by up to about a
// millisecond here, which would otherwise be most of a sub-millisecond
// request's measured latency.
const sleepSlack = 1200 * time.Microsecond

// runOpenLoop issues n ops on a fixed schedule — op i is due at
// start + i·interval whatever happened to the ops before it — with at
// most inflight of them executing at once.
func runOpenLoop(n int, interval time.Duration, inflight int, do func(i int) error) openLoop {
	res := openLoop{
		lat:  make([]time.Duration, n),
		late: make([]time.Duration, n),
		errs: make([]error, n),
	}
	start := time.Now()
	work := make(chan int)
	var wg sync.WaitGroup
	for range inflight {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				due := time.Duration(i) * interval
				res.late[i] = time.Since(start) - due
				res.errs[i] = do(i)
				res.lat[i] = time.Since(start) - due
			}
		}()
	}
	for i := range n {
		due := time.Duration(i) * interval
		if d := due - time.Since(start); d > sleepSlack {
			time.Sleep(d - sleepSlack)
		}
		for time.Since(start) < due {
			runtime.Gosched()
		}
		work <- i
	}
	close(work)
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}
