package dist

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"masksearch/internal/core"
	"masksearch/internal/store"
)

// wireSamples holds one value of every payload type (verifyReq twice:
// with and without aggregation groups), with every field set so a field
// the codec forgot cannot round-trip.
func wireSamples() []wireMsg {
	term := wireTerm{Name: "obj", Spec: core.RegionSpec{Kind: core.RegionRect, Rect: core.Rect{X0: 1, Y0: 2, X1: 30, Y1: 31}},
		Range: core.ValueRange{Lo: math.Inf(-1), Hi: 0.8}}
	st := core.Stats{Targets: 9, IndexHits: 8, AcceptedByBounds: 3, RejectedByBounds: 2, Loaded: 4}
	info := nodeInfo{Node: "a", BootID: "0123456789abcdef", Reads: []store.ReadStats{
		{MasksLoaded: 1, BytesRead: 3, CacheHits: 4, CacheMisses: 5, CacheEvicted: 6, TailLoads: 7}, {}}}
	items := []core.VerifyItem{{ID: 4, B: core.Bounds{Lo: 2, Hi: 9}}, {ID: 1 << 40, B: core.Bounds{Lo: -1, Hi: 0}}}
	return []wireMsg{
		&helloReq{},
		&HelloRes{Wire: WireVersion, Node: "a", BootID: "0123456789abcdef", NumMasks: 192, MaskW: 32, MaskH: 24,
			Shards: 2, Codec: "rle", GenVersion: 2},
		&filterReq{BootID: "b", IDs: []int64{1, 1 << 40, -3}, Terms: []wireTerm{term, {Spec: core.RegionSpec{Kind: core.RegionObject}}},
			Pred: []wireCmp{{T: 1, Op: core.OpLe, C: -900}, {T: 0, Op: core.OpGt, C: 20}}, DeadlineMS: 250},
		&filterRes{Keep: []bool{true, false, true}, Stats: st, Node: info},
		&boundsReq{BootID: "b", IDs: []int64{4, 5}, Term: term, DeadlineMS: 1},
		&boundsRes{Cands: []core.CandBound{
			{ID: 4, B: core.Bounds{Lo: 2, Hi: 9}, Indexed: true},
			{ID: 5, B: core.Bounds{Lo: 7, Hi: 7}, Known: true, Score: 7, Indexed: true},
			{ID: 6, B: core.Bounds{Lo: 0, Hi: math.MaxInt64 / 4}},
		}, Stats: st, Node: info},
		&verifyReq{BootID: "b", Items: items, Term: term, Gate: core.GateSpec{Ord: core.Asc, K: 3, Best: []core.Scored{{ID: -5, Score: 7}, {ID: 1 << 40, Score: 2}}}, DeadlineMS: 3},
		&verifyReq{BootID: "b", Items: items, Term: term, Gate: core.GateSpec{Ord: core.Asc, K: 2, Best: []core.Scored{{ID: 3, Score: 0.5}}, Agg: core.Max,
			Groups: []core.GateGroup{{Key: -9, Off: 0, N: 1, Pending: 0}, {Key: 1 << 41, Off: 1, N: 3, Pending: 2}},
			Opt:    []float64{12.5, math.Inf(1), -0.25, 0},
			Items:  []core.GateItem{{G: 1, M: 3, Indexed: true}, {G: 0, M: 0}}}, DeadlineMS: 4},
		&rankReq{BootID: "b", IDs: []int64{4, 1 << 40}, Term: term, K: 10, Ord: core.Asc, DeadlineMS: 5},
		&scoreChunk{{Idx: 0, Score: 17}, {Idx: 15, Score: -1}},
		&tauPush{ID: -42, Score: 21.5},
		&verifyRes{Stats: st, Node: info},
		&wireError{Msg: "dist: boom", BootID: "b"},
	}
}

// fresh returns a zero value of m's type.
func fresh(m wireMsg) wireMsg {
	return reflect.New(reflect.TypeOf(m).Elem()).Interface().(wireMsg)
}

// TestWireRoundTrip: every payload type decodes to the value encoded
// and re-encodes to the same bytes; every proper prefix, a trailing
// byte and a non-canonical bool are rejected.
func TestWireRoundTrip(t *testing.T) {
	for _, m := range wireSamples() {
		name := reflect.TypeOf(m).Elem().Name()
		enc := encodeMsg(nil, m)
		got := fresh(m)
		if err := decodeMsg(enc, got); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%s: round trip\ngot:  %+v\nwant: %+v", name, got, m)
		}
		if re := encodeMsg(nil, got); !bytes.Equal(re, enc) {
			t.Fatalf("%s: re-encoding differs", name)
		}
		for i := range enc {
			if err := decodeMsg(enc[:i], fresh(m)); err == nil {
				t.Fatalf("%s: %d-byte prefix of %d decoded", name, i, len(enc))
			}
		}
		if err := decodeMsg(append(enc, 0), fresh(m)); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("%s: trailing byte: err = %v", name, err)
		}
	}

	enc := encodeMsg(nil, &filterRes{Keep: []bool{true}})
	enc[4] = 2 // the one Keep byte, after its count
	if err := decodeMsg(enc, &filterRes{}); err == nil || !strings.Contains(err.Error(), "bool") {
		t.Fatalf("bool byte 2: err = %v", err)
	}
}

// TestWireElementSizes pins the minimum element sizes the count check
// trusts: one zero element must encode to exactly that many bytes, or
// the check would reject valid payloads (too large) or let a declared
// count allocate past the payload (too small).
func TestWireElementSizes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		size      int
		one, none wireMsg
	}{
		{"id", idSize, &boundsReq{IDs: []int64{0}}, &boundsReq{}},
		{"rank id", idSize, &rankReq{IDs: []int64{0}}, &rankReq{}},
		{"bool", boolSize, &filterRes{Keep: []bool{false}}, &filterRes{}},
		{"cand", candSize, &boundsRes{Cands: make([]core.CandBound, 1)}, &boundsRes{}},
		{"item", itemSize, &verifyReq{Items: make([]core.VerifyItem, 1)}, &verifyReq{}},
		{"entry", pushSize, &verifyReq{Gate: core.GateSpec{Best: make([]core.Scored, 1)}}, &verifyReq{}},
		{"group", groupSize, &verifyReq{Gate: core.GateSpec{Groups: make([]core.GateGroup, 1)}}, &verifyReq{}},
		{"opt", optSize, &verifyReq{Gate: core.GateSpec{Opt: make([]float64, 1)}}, &verifyReq{}},
		{"place", placeSize, &verifyReq{Gate: core.GateSpec{Items: make([]core.GateItem, 1)}}, &verifyReq{}},
		{"score", scoreSize, &scoreChunk{{}}, &scoreChunk{}},
		{"term", termSize, &filterReq{Terms: make([]wireTerm, 1)}, &filterReq{}},
		{"cmp", cmpSize, &filterReq{Pred: make([]wireCmp, 1)}, &filterReq{}},
		{"reads", readsSize, &verifyRes{Node: nodeInfo{Reads: make([]store.ReadStats, 1)}}, &verifyRes{}},
	} {
		if got := len(encodeMsg(nil, tc.one)) - len(encodeMsg(nil, tc.none)); got != tc.size {
			t.Errorf("%s: one zero element encodes to %d bytes, size constant is %d", tc.name, got, tc.size)
		}
	}
}

// TestWireHugeCount: a declared count the payload cannot hold fails
// before anything is allocated for it (unchecked, this one would
// allocate 48 MiB of candidates).
func TestWireHugeCount(t *testing.T) {
	payload := []byte{0, 0, 0x10, 0, 1, 2, 3}
	var err error
	grew := allocated(func() { err = decodeMsg(payload, &boundsRes{}) })
	if err == nil || !strings.Contains(err.Error(), "declared") {
		t.Fatalf("err = %v, want a declared-count rejection", err)
	}
	if grew > 1024 {
		t.Fatalf("rejecting the count allocated %d bytes", grew)
	}
}

// allocated reports the heap bytes allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzWire decodes arbitrary bytes as each payload type (the first byte
// picks the type): decoding must never panic nor allocate more than a
// small multiple of the payload, and a payload it accepts must
// re-encode byte-identically.
func FuzzWire(f *testing.F) {
	samples := wireSamples()
	for i, m := range samples {
		f.Add(append([]byte{byte(i)}, encodeMsg(nil, m)...))
	}
	f.Add([]byte{5, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sample, payload := samples[int(data[0])%len(samples)], data[1:]
		// The least of three decodes is the decoder's own allocation: the
		// fuzzing engine's goroutines allocate beside it now and then.
		var m wireMsg
		var err error
		least := uint64(math.MaxUint64)
		for range 3 {
			m = fresh(sample)
			least = min(least, allocated(func() { err = decodeMsg(payload, m) }))
		}
		if least > 4*uint64(len(payload))+1024 {
			t.Fatalf("decoding %d payload bytes allocated %d bytes", len(payload), least)
		}
		if err != nil {
			return
		}
		if re := encodeMsg(nil, m); !bytes.Equal(re, payload) {
			t.Fatalf("accepted payload does not re-encode identically:\nin:  %x\nout: %x", payload, re)
		}
	})
}
