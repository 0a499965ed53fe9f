package main

import "testing"

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	// op [0,100)
	//   ├─ a [10,50)        parallel with b
	//   │    └─ a1 [20,30)
	//   ├─ b [30,70)        overlaps a on [30,50)
	//   ├─ c [80,120)       outlives the parent: clipped to [80,100)
	//   └─ d [40,45)        inside both a and b
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 50},
		{ID: 2, Parent: 1, Name: "a1", Start: 20, End: 30},
		{ID: 3, Parent: 0, Name: "b", Start: 30, End: 70},
		{ID: 4, Parent: 0, Name: "c", Start: 80, End: 120},
		{ID: 5, Parent: 0, Name: "d", Start: 40, End: 45},
	}
	fillSelfTimes(spans)
	// Children cover [10,70) ∪ [80,100) = 80 of op's 100.
	want := []int64{20, 30, 10, 40, 40, 5}
	for i, s := range spans {
		if s.Self != want[i] {
			t.Errorf("%s: self time %d, want %d", s.Name, s.Self, want[i])
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.start("op", -1, 0)
	r.end(id)
	if id != -1 || r.snapshot() != nil {
		t.Errorf("nil recorder returned id %d, spans %v", id, r.snapshot())
	}
}
