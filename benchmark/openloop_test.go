package main

import (
	"testing"
	"time"
)

// A handler that stalls once must show the stall in the latency of
// the requests that were due while it was stalled, not only in its
// own: that is what timing from the due time buys over timing from the
// send time (coordinated omission).
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const (
		interval = 10 * time.Millisecond
		stall    = 200 * time.Millisecond
		stalled  = 5
	)
	sent := make([]time.Duration, 40)
	res := runOpenLoop(len(sent), interval, 1, func(i int) error {
		t0 := time.Now()
		if i == stalled {
			time.Sleep(stall)
		}
		sent[i] = time.Since(t0)
		return nil
	})
	if res.lat[stalled] < stall {
		t.Errorf("stalled op: latency %v, want >= %v", res.lat[stalled], stall)
	}
	// Op stalled+k was due k intervals into the stall and could not
	// start before it ended.
	for k := 1; k <= 10; k++ {
		i := stalled + k
		want := stall - time.Duration(k)*interval
		if res.lat[i] < want {
			t.Errorf("op %d queued behind the stall: latency %v, want >= %v", i, res.lat[i], want)
		}
		if res.late[i] < want {
			t.Errorf("op %d: generator lateness %v, want >= %v", i, res.late[i], want)
		}
		if sent[i] > stall/4 {
			t.Errorf("op %d: service time %v; the stall must show only from the due time", i, sent[i])
		}
	}
	// The queue drains: the last ops are on schedule again.
	if last := res.lat[len(sent)-1]; last > stall/2 {
		t.Errorf("last op still %v late", last)
	}
}

func TestOpenLoopCapsInflight(t *testing.T) {
	var cur, peak int32
	gate := make(chan struct{}, 1)
	gate <- struct{}{}
	res := runOpenLoop(30, time.Millisecond, 2, func(int) error {
		<-gate
		cur++
		peak = max(peak, cur)
		gate <- struct{}{}
		time.Sleep(3 * time.Millisecond)
		<-gate
		cur--
		gate <- struct{}{}
		return nil
	})
	if peak != 2 {
		t.Errorf("peak in-flight %d, want 2", peak)
	}
	if len(res.lat) != 30 {
		t.Errorf("%d latencies, want 30", len(res.lat))
	}
}
