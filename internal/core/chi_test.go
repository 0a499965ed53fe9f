package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randomMask draws a mask with clustered values plus forced exact-0.0
// and exact-1.0 pixels so the top-bin edge case is always exercised.
func randomMask(rng *rand.Rand, w, h int) *Mask {
	m := NewMask(w, h)
	for i := range m.Pix {
		switch rng.Intn(10) {
		case 0:
			m.Pix[i] = 1.0
		case 1:
			m.Pix[i] = 0.0
		case 2:
			// Quantized like the on-disk store.
			m.Pix[i] = float32(rng.Intn(256)) / 255
		default:
			m.Pix[i] = rng.Float32()
		}
	}
	return m
}

func randomConfig(rng *rand.Rand) Config {
	var edges []float64
	switch rng.Intn(3) {
	case 0:
		edges = DefaultEdges(2 + rng.Intn(15))
	case 1:
		// Jagged, unsorted, possibly duplicated edges: Normalize must cope.
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			edges = append(edges, float64(rng.Intn(100))/100)
		}
	default:
		edges = []float64{0, 0.5, 0.9, 0.95, 0.99}
	}
	return Config{CellW: 1 + rng.Intn(9), CellH: 1 + rng.Intn(9), Edges: edges}
}

func randomROI(rng *rand.Rand, w, h int) Rect {
	switch rng.Intn(8) {
	case 0:
		return Rect{0, 0, w, h}
	case 1: // 1-pixel
		x, y := rng.Intn(w), rng.Intn(h)
		return Rect{x, y, x + 1, y + 1}
	case 2: // out of bounds / degenerate
		return Rect{w - 2, h - 2, w + 5, h + 5}
	case 3:
		return Rect{} // empty
	}
	x0, y0 := rng.Intn(w), rng.Intn(h)
	x1, y1 := x0+1+rng.Intn(w-x0), y0+1+rng.Intn(h-y0)
	return Rect{x0, y0, x1, y1}
}

func randomVR(rng *rand.Rand) ValueRange {
	switch rng.Intn(6) {
	case 0:
		return ValueRange{Lo: rng.Float64(), Hi: 1.0} // top-closed
	case 1:
		return ValueRange{Lo: 1.0, Hi: 1.0} // only saturated pixels
	case 2:
		return ValueRange{Lo: 0, Hi: 1.0} // everything
	case 3:
		return ValueRange{Lo: 0.7, Hi: 0.3} // empty
	case 4:
		// Aligned to DefaultEdges(10) boundaries.
		lo := float64(rng.Intn(10)) / 10
		return ValueRange{Lo: lo, Hi: 1.0}
	}
	lo := rng.Float64()
	return ValueRange{Lo: lo, Hi: lo + rng.Float64()*(1-lo)}
}

// TestCPBoundsAdmissible is the CHI admissibility property: for random
// masks, configs, ROIs and value ranges, CPBounds always brackets the
// exact CP.
func TestCPBoundsAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 2000; iter++ {
		w, h := 4+rng.Intn(37), 4+rng.Intn(37)
		m := randomMask(rng, w, h)
		chi, err := Build(m, randomConfig(rng))
		if err != nil {
			t.Fatalf("iter %d: Build: %v", iter, err)
		}
		for probe := 0; probe < 8; probe++ {
			roi := randomROI(rng, w, h)
			vr := randomVR(rng)
			exact := ExactCP(m, roi, vr)
			b := chi.CPBounds(roi, vr)
			if exact < b.Lo || exact > b.Hi {
				t.Fatalf("iter %d: CPBounds %v does not bracket exact %d (mask %dx%d cells %dx%d edges %v roi %v vr %v)",
					iter, b, exact, w, h, chi.CellW, chi.CellH, chi.Edges, roi, vr)
			}
			if b.Lo < 0 || b.Hi > int64(w*h) {
				t.Fatalf("iter %d: CPBounds %v outside [0, %d]", iter, b, w*h)
			}
		}
	}
}

// TestCPBoundsExactWhenAligned checks that cell-aligned ROIs with
// edge-aligned ranges produce zero-slack bounds, including the
// v == 1.0 top bin.
func TestCPBoundsExactWhenAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 300; iter++ {
		cw, ch := 2+rng.Intn(6), 2+rng.Intn(6)
		gw, gh := 1+rng.Intn(5), 1+rng.Intn(5)
		w, h := cw*gw, ch*gh
		m := randomMask(rng, w, h)
		chi, err := Build(m, Config{CellW: cw, CellH: ch, Edges: DefaultEdges(10)})
		if err != nil {
			t.Fatal(err)
		}
		cx0, cy0 := rng.Intn(gw), rng.Intn(gh)
		roi := Rect{
			cx0 * cw, cy0 * ch,
			(cx0 + 1 + rng.Intn(gw-cx0)) * cw, (cy0 + 1 + rng.Intn(gh-cy0)) * ch,
		}
		vr := ValueRange{Lo: float64(rng.Intn(10)) / 10, Hi: 1.0}
		exact := ExactCP(m, roi, vr)
		b := chi.CPBounds(roi, vr)
		if b.Lo != exact || b.Hi != exact {
			t.Fatalf("aligned bounds not exact: %v vs %d (roi %v vr %v)", b, exact, roi, vr)
		}
	}
}

// TestCPTopBinSaturated pins the v == 1.0 edge: a fully saturated mask
// must report every pixel in any top-closed range and zero in [x, 1).
func TestCPTopBinSaturated(t *testing.T) {
	m := NewMask(8, 8)
	for i := range m.Pix {
		m.Pix[i] = 1.0
	}
	if got := ExactCP(m, m.Bounds(), ValueRange{Lo: 0.9, Hi: 1.0}); got != 64 {
		t.Fatalf("top-closed CP over saturated mask = %d, want 64", got)
	}
	if got := ExactCP(m, m.Bounds(), ValueRange{Lo: 0.9, Hi: 0.999}); got != 0 {
		t.Fatalf("half-open CP below 1.0 over saturated mask = %d, want 0", got)
	}
	chi, err := Build(m, Config{CellW: 4, CellH: 4, Edges: DefaultEdges(10)})
	if err != nil {
		t.Fatal(err)
	}
	if b := chi.CPBounds(m.Bounds(), ValueRange{Lo: 0.9, Hi: 1.0}); b.Lo != 64 || b.Hi != 64 {
		t.Fatalf("CHI bounds for saturated top bin = %v, want exact 64", b)
	}
}

// mapLoader serves masks from memory for engine tests.
type mapLoader struct {
	masks  map[int64]*Mask
	loaded int
}

func (l *mapLoader) LoadMask(id int64) (*Mask, error) {
	m, ok := l.masks[id]
	if !ok {
		return nil, fmt.Errorf("no mask %d", id)
	}
	l.loaded++
	return m, nil
}

// buildEngineFixture returns n random masks with a full index over
// them.
func buildEngineFixture(rng *rand.Rand, n, w, h int) (*mapLoader, *MemoryIndex, []int64) {
	loader := &mapLoader{masks: map[int64]*Mask{}}
	idx := NewMemoryIndex(Config{CellW: 4, CellH: 4, Edges: DefaultEdges(10)})
	ids := make([]int64, 0, n)
	for i := 1; i <= n; i++ {
		id := int64(i)
		m := randomMask(rng, w, h)
		loader.masks[id] = m
		chi, _ := Build(m, idx.Config())
		idx.Add(id, chi)
		ids = append(ids, id)
	}
	return loader, idx, ids
}

// TestFilterMatchesBruteForce cross-checks the filter–verification
// pipeline against direct evaluation, on random queries and on the
// adversarial edge shapes.
func TestFilterMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ctx := context.Background()
	const w, h = 16, 16
	loader, idx, ids := buildEngineFixture(rng, 60, w, h)
	type filterCase struct {
		name   string
		region RegionFn
		vr     ValueRange
		thresh int64
	}
	var cases []filterCase
	for iter := 0; iter < 50; iter++ {
		roi := randomROI(rng, w, h)
		cases = append(cases, filterCase{fmt.Sprintf("random %d", iter), FixedRegion(roi), randomVR(rng), int64(rng.Intn(100))})
	}
	full := FixedRegion(Rect{0, 0, w, h})
	// A per-mask box, like each mask's object box from the catalog.
	object := func(id int64) Rect {
		x, y := int(id%9), int(id*7%11)
		return Rect{x, y, x + 6, y + 5}
	}
	cases = append(cases,
		filterCase{"top-closed saturation", full, ValueRange{Lo: 1.0, Hi: 1.0}, 0},
		filterCase{"1-px roi", FixedRegion(Rect{w / 2, h / 2, w/2 + 1, h/2 + 1}), ValueRange{Lo: 0.5, Hi: 1.0}, 0},
		filterCase{"full roi, threshold w*h-1", full, ValueRange{Lo: 0, Hi: 1.0}, w*h - 1},
		filterCase{"empty range", full, ValueRange{Lo: 0.7, Hi: 0.7}, 0},
		filterCase{"object box", object, ValueRange{Lo: 0.9, Hi: 0.95}, 1},
	)
	for _, c := range cases {
		terms := []CPTerm{{Region: c.region, Range: c.vr}}
		pred := Cmp{T: 0, Op: OpGt, C: c.thresh}

		env := &Env{Loader: loader, Index: idx}
		got, st, err := Filter(ctx, env, ids, terms, pred)
		if err != nil {
			t.Fatal(err)
		}
		var want []int64
		for _, id := range ids {
			if ExactCP(loader.masks[id], c.region(id), c.vr) > c.thresh {
				want = append(want, id)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: filter mismatch: got %v want %v (stats %v)", c.name, got, want, st)
		}
		if st.Loaded+st.AcceptedByBounds+st.RejectedByBounds != st.Targets {
			t.Fatalf("%s: stats don't partition targets: %v", c.name, st)
		}
	}
}

// TestTopKMatchesBruteForce cross-checks TopK pruning.
func TestTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ctx := context.Background()
	loader, idx, ids := buildEngineFixture(rng, 60, 16, 16)
	for iter := 0; iter < 40; iter++ {
		roi := randomROI(rng, 16, 16)
		vr := randomVR(rng)
		k := 1 + rng.Intn(12)
		ord := Order(rng.Intn(2))
		terms := []CPTerm{{Region: FixedRegion(roi), Range: vr}}

		got, _, err := TopK(ctx, &Env{Loader: loader, Index: idx}, ids, terms, 0, k, ord)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]Scored, 0, len(ids))
		for _, id := range ids {
			want = append(want, Scored{ID: id, Score: float64(ExactCP(loader.masks[id], roi, vr))})
		}
		SortScored(want, ord)
		want = want[:k]
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("iter %d: topk mismatch (k=%d %v):\ngot  %v\nwant %v", iter, k, ord, got, want)
		}
	}
}

// TestAggTopKMatchesBruteForce cross-checks group aggregation for
// every aggregate function.
func TestAggTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	loader, idx, ids := buildEngineFixture(rng, 60, 16, 16)
	var groups []Group
	for i := 0; i < len(ids); i += 4 {
		groups = append(groups, Group{Key: int64(i / 4), IDs: ids[i:min(i+4, len(ids))]})
	}
	for iter := 0; iter < 40; iter++ {
		roi := randomROI(rng, 16, 16)
		vr := randomVR(rng)
		k := 1 + rng.Intn(8)
		agg := Agg(rng.Intn(4))
		terms := []CPTerm{{Region: FixedRegion(roi), Range: vr}}

		got, _, err := AggTopK(ctx, &Env{Loader: loader, Index: idx}, groups, terms, 0, agg, k, Desc)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]Scored, 0, len(groups))
		for _, g := range groups {
			vals := make([]float64, len(g.IDs))
			for i, id := range g.IDs {
				vals[i] = float64(ExactCP(loader.masks[id], roi, vr))
			}
			want = append(want, Scored{ID: g.Key, Score: AggExact(agg, vals)})
		}
		SortScored(want, Desc)
		want = want[:k]
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("iter %d: aggtopk mismatch (%v k=%d):\ngot  %v\nwant %v", iter, agg, k, got, want)
		}
	}
}

// TestIncrementalObserve checks that verified masks enter the index
// and later identical queries stop loading masks.
func TestIncrementalObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ctx := context.Background()
	loader, _, ids := buildEngineFixture(rng, 40, 16, 16)
	idx := NewMemoryIndex(Config{CellW: 4, CellH: 4, Edges: DefaultEdges(10)})
	env := &Env{Loader: loader, Index: idx, OnVerify: idx.Observe}
	terms := []CPTerm{{Region: FixedRegion(Rect{0, 0, 16, 16}), Range: ValueRange{Lo: 0.5, Hi: 1.0}}}
	pred := Cmp{T: 0, Op: OpGt, C: 100}

	_, st1, err := Filter(ctx, env, ids, terms, pred)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Loaded != len(ids) {
		t.Fatalf("cold filter should verify everything, loaded %d of %d", st1.Loaded, len(ids))
	}
	if idx.Len() != len(ids) {
		t.Fatalf("Observe indexed %d masks, want %d", idx.Len(), len(ids))
	}
	_, st2, err := Filter(ctx, env, ids, terms, pred)
	if err != nil {
		t.Fatal(err)
	}
	// A full-mask, edge-aligned term gives exact bounds: nothing to load.
	if st2.Loaded != 0 {
		t.Fatalf("warm filter loaded %d masks, want 0 (stats %v)", st2.Loaded, st2)
	}
}

// TestIndexRoundTrip checks Encode/ReadMemoryIndex preserve bounds.
func TestIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	_, idx, ids := buildEngineFixture(rng, 10, 16, 16)
	var buf bytes.Buffer
	if err := idx.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMemoryIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != idx.Len() || back.SizeBytes() != idx.SizeBytes() || back.Config().Key() != idx.Config().Key() {
		t.Fatalf("round trip lost state: %d/%d/%s vs %d/%d/%s", back.Len(), back.SizeBytes(), back.Config().Key(),
			idx.Len(), idx.SizeBytes(), idx.Config().Key())
	}
	for _, roi := range []Rect{{3, 3, 13, 11}, {0, 0, 16, 16}, {5, 6, 7, 9}} {
		for _, vr := range []ValueRange{{Lo: 0.35, Hi: 1.0}, {Lo: 0, Hi: 0.5}, {Lo: 0.8, Hi: 0.9}} {
			for _, id := range ids {
				a, _ := idx.ChiFor(id)
				b, _ := back.ChiFor(id)
				if b == nil || a.CPBounds(roi, vr) != b.CPBounds(roi, vr) {
					t.Fatalf("mask %d: bounds for %v %v differ after round trip", id, roi, vr)
				}
			}
		}
	}
}

// TestReadMemoryIndexRejectsMalformed: an index file whose config is
// not in normal form, or with an entry its config could not have
// built, is an error naming the mask — never an index a query trusts.
// The file holds one header for all entries, so a geometry corruption
// (half-length counts, a grid one cell too wide, an empty mask, another
// cell size) is the header's and a count corruption a slot's. An entry
// with edges other than its config's cannot be written: the header's
// edges are every entry's. The file is also cut at every offset, given
// a trailing byte, a presence bit on an empty slot and counts in an
// absent one.
func TestReadMemoryIndexRejectsMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	loader, idx, ids := buildEngineFixture(rng, 3, 16, 15)
	cfg := idx.Config()
	k := len(cfg.Edges)
	terms := []CPTerm{{Region: FixedRegion(Rect{0, 0, 16, 15}), Range: ValueRange{Lo: 0.35, Hi: 0.85}}}
	var buf bytes.Buffer
	if err := idx.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	u32 := func(b []byte, off int, f func(uint32) uint32) {
		binary.LittleEndian.PutUint32(b[off:], f(binary.LittleEndian.Uint32(b[off:])))
	}
	geo := 24 + 8*k        // W, H, stride, pages
	slab := geo + 16 + 128 // page 0's counts; slot s at slab + 4*s*stride
	stride := len(mustChi(t, idx, 1).Cum)
	slot := func(id int64, j int) int { return slab + 4*(int(id-1)*stride+j) }
	set := func(off int, v uint32) func([]byte) {
		return func(b []byte) { u32(b, off, func(uint32) uint32 { return v }) }
	}
	add := func(off int, d uint32) func([]byte) {
		return func(b []byte) { u32(b, off, func(v uint32) uint32 { return v + d }) }
	}
	for _, tc := range []struct {
		name, want string
		corrupt    func(b []byte)
	}{
		{"half-length counts", "stride", set(geo+8, uint32(stride/2))},
		{"grid one cell too wide", "stride", add(geo, uint32(cfg.CellW))},
		{"empty mask", "stride", set(geo, 0)},
		{"other cell size", "stride", add(12, uint32(cfg.CellW))},
		{"config not normalized", "not normalized", func(b []byte) {
			binary.LittleEndian.PutUint64(b[24:], math.Float64bits(0.5))
		}},
		{"count above cell area", "mask 2:", add(slot(2, 5*k), 1)},
		{"count below cell area", "mask 2:", add(slot(2, 5*k), ^uint32(0))},
		{"counts increase", "mask 2:", func(b []byte) {
			u32(b, slot(2, k-1), func(uint32) uint32 { return binary.LittleEndian.Uint32(b[slot(2, 0):]) + 1 })
		}},
		{"negative count", "mask 2:", set(slot(2, 2*k-1), ^uint32(0))},
		{"presence bit on an empty slot", "mask 5:", func(b []byte) { b[geo+16] |= 1 << 4 }},
		{"counts in an absent slot", "mask 4:", set(slot(4, 0), 1)},
		{"other format version", "format version", add(8, 1)},
		{"pages beyond the file", "declared", add(geo+12, 1)},
	} {
		b := bytes.Clone(enc)
		tc.corrupt(b)
		ix, err := ReadMemoryIndex(bytes.NewReader(b))
		if err == nil {
			_, _, qerr := Filter(context.Background(), &Env{Loader: loader, Index: ix}, ids, terms, Cmp{T: 0, Op: OpGt, C: 50})
			t.Fatalf("arena %s: accepted (a query over it returned %v)", tc.name, qerr)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("arena %s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
	// Cut at every offset, on an index of 2 counts per slot so the cuts
	// stay few: whatever the offset, it is an error.
	small := NewMemoryIndex(Config{CellW: 4, CellH: 4, Edges: []float64{0, 0.5}})
	small.Observe(3, randomByteMask(rng, 4, 4))
	buf.Reset()
	if err := small.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	enc = buf.Bytes()
	for n := range len(enc) {
		if _, err := ReadMemoryIndex(bytes.NewReader(enc[:n])); err == nil {
			t.Fatalf("the arena file cut to %d of %d bytes was accepted", n, len(enc))
		}
	}
	if _, err := ReadMemoryIndex(bytes.NewReader(append(bytes.Clone(enc), 0))); err == nil {
		t.Fatal("the arena file with a trailing byte was accepted")
	}
}

// mustChi returns id's entry in ix.
func mustChi(tb testing.TB, ix *MemoryIndex, id int64) *CHI {
	tb.Helper()
	c, err := ix.ChiFor(id)
	if err != nil || c == nil {
		tb.Fatalf("mask %d not indexed (err %v)", id, err)
	}
	return c
}
