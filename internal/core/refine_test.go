package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// oracleCPBounds is CHI.CPBounds as it stood before term plans — four
// edge searches and the cell cover re-derived on every call — kept as
// the reference the planned bounds must reproduce exactly.
func oracleCPBounds(c *CHI, roi Rect, vr ValueRange) Bounds {
	roi = roi.Intersect(Rect{0, 0, c.W, c.H})
	if roi.Empty() || vr.IsEmpty() {
		return Bounds{}
	}
	lo := vr.Lo
	if lo < 0 {
		lo = 0
	}
	if lo > 1 {
		return Bounds{}
	}
	k := len(c.Edges)
	loLE := binIndex(c.Edges, lo)
	loGE := geIdx(c.Edges, lo)
	closedTop := vr.Hi >= 1
	var hiLE, hiGE int
	if !closedTop {
		hiLE = binIndex(c.Edges, vr.Hi)
		hiGE = geIdx(c.Edges, vr.Hi)
	}
	var total Bounds
	cx0, cx1 := roi.X0/c.CellW, (roi.X1-1)/c.CellW
	cy0, cy1 := roi.Y0/c.CellH, (roi.Y1-1)/c.CellH
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			cell := Rect{
				cx * c.CellW, cy * c.CellH,
				min((cx+1)*c.CellW, c.W), min((cy+1)*c.CellH, c.H),
			}
			base := (cy*c.GW + cx) * k
			geLoU := int64(c.Cum[base+loLE])
			var geLoL int64
			if loGE < k {
				geLoL = int64(c.Cum[base+loGE])
			}
			var geHiU, geHiL int64
			if !closedTop {
				geHiU = int64(c.Cum[base+hiLE])
				if hiGE < k {
					geHiL = int64(c.Cum[base+hiGE])
				}
			}
			hi := geLoU - geHiL
			lo := geLoL - geHiU
			if lo < 0 {
				lo = 0
			}
			cellArea := int64(cell.Area())
			ovl := int64(cell.Intersect(roi).Area())
			if ovl < cellArea {
				if hi > ovl {
					hi = ovl
				}
				lo -= cellArea - ovl
				if lo < 0 {
					lo = 0
				}
			}
			total.Lo += lo
			total.Hi += hi
		}
	}
	return total
}

// refineCase is one (mask, index config, region, range) combination of
// the refinement property; FuzzRefineCP decodes its input into one.
type refineCase struct {
	m   *Mask
	cfg Config
	roi Rect
	vr  ValueRange
}

// backings returns the mask in its three interchangeable backings. The
// float one is the byte mask converted, so all three hold the same
// logical pixels.
func backings(tb testing.TB, bm *Mask) []*Mask {
	rle := EncodeRLE(bm.Bytes, bm.W, bm.H)
	return []*Mask{bm, withRowDir(tb, rle, bm.W, bm.H), {W: bm.W, H: bm.H, RLE: rle}, bm.ToFloat()}
}

// bimodalByteMask is saliency-shaped: a dark background, a saturated
// plateau and a soft rim, so many cells are exact under coarse edges.
func bimodalByteMask(rng *rand.Rand, w, h int) *Mask {
	m := NewByteMask(w, h)
	cx, cy, r := rng.Intn(w), rng.Intn(h), 1+rng.Intn(max(w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			switch d := math.Hypot(float64(x-cx), float64(y-cy)); {
			case d < float64(r)/2:
				m.Bytes[y*w+x] = 255
			case d < float64(r):
				m.Bytes[y*w+x] = uint8(rng.Intn(256))
			default:
				m.Bytes[y*w+x] = uint8(rng.Intn(20))
			}
		}
	}
	return m
}

// patchworkByteMask tiles the mask with blocks that are all dark, all
// saturated or noise, so a cell row mixes exact and residual cells and
// refinement has several spans to order.
func patchworkByteMask(rng *rand.Rand, w, h, bw, bh int) *Mask {
	m := NewByteMask(w, h)
	kinds := make([]int, (w/bw+1)*(h/bh+1))
	for i := range kinds {
		kinds[i] = rng.Intn(3)
	}
	for i := range m.Bytes {
		switch kinds[(i/w/bh)*(w/bw+1)+i%w/bw] {
		case 0:
			m.Bytes[i] = 255
		case 1:
			m.Bytes[i] = uint8(rng.Intn(256))
		}
	}
	return m
}

// checkRefine asserts the refinement contract for one case.
func checkRefine(tb testing.TB, c refineCase) {
	tb.Helper()
	chi, err := Build(c.m, c.cfg)
	if err != nil {
		tb.Fatal(err)
	}
	want := ExactCP(c.m, c.roi, c.vr)
	desc := fmt.Sprintf("%dx%d cells %dx%d edges %v roi %v vr %v", c.m.W, c.m.H, chi.CellW, chi.CellH, chi.Edges, c.roi, c.vr)

	// The planned bounds are the parent's bounds, memoized cover or not.
	bounds := oracleCPBounds(chi, c.roi, c.vr)
	if got := chi.CPBounds(c.roi, c.vr); got != bounds {
		tb.Fatalf("%s: CPBounds %v, parent computed %v", desc, got, bounds)
	}
	other := Rect{c.roi.X0 + 1, c.roi.Y0, c.roi.X1 + 2, c.roi.Y1 + 1}
	for _, first := range []Rect{c.roi, other} {
		p := &planTerms([]CPTerm{{Region: func(id int64) Rect { return []Rect{first, c.roi}[id] }, Range: c.vr}})[0]
		p.bounds(chi, 0) // memoizes the cover of first
		if got := p.bounds(chi, 1); got != bounds {
			tb.Fatalf("%s: planned bounds %v (cover memoized for %v), parent computed %v", desc, got, first, bounds)
		}
	}
	if bounds.Lo > want || want > bounds.Hi {
		tb.Fatalf("%s: bounds %v exclude the exact CP %d", desc, bounds, want)
	}

	p := &planTerms([]CPTerm{{Region: FixedRegion(c.roi), Range: c.vr}})[0]
	// No stop: exact, with the CHI, without one, and with a CHI of
	// another mask size (which must be ignored, not trusted).
	foreign, err := Build(NewByteMask(c.m.W+1, c.m.H), c.cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for _, idx := range []*CHI{chi, nil, foreign} {
		if got := p.refine(idx, c.m, 0, nil); got != (Bounds{want, want}) {
			tb.Fatalf("%s: refine without stop = %v, ExactCP = %d (chi %v)", desc, got, want, idx != nil)
		}
	}
	// A stop that never accepts sees intervals that contain the exact
	// CP, start inside the index bounds and only narrow; the result is
	// still exact.
	var seen []Bounds
	got := p.refine(chi, c.m, 0, func(b Bounds) bool {
		seen = append(seen, b)
		return false
	})
	if got != (Bounds{want, want}) {
		tb.Fatalf("%s: refine under a refusing stop = %v, ExactCP = %d", desc, got, want)
	}
	prev := bounds
	for i, b := range seen {
		if b.Lo > want || want > b.Hi || b.Lo < prev.Lo || b.Hi > prev.Hi {
			tb.Fatalf("%s: intermediate bound %d = %v after %v, exact CP %d", desc, i, b, prev, want)
		}
		prev = b
	}
	// A stop that accepts its n-th bound ends the scan right there.
	for n := range seen {
		calls := 0
		got := p.refine(chi, c.m, 0, func(b Bounds) bool {
			calls++
			return calls == n+1
		})
		if got != seen[n] || calls != n+1 {
			tb.Fatalf("%s: stop accepting bound %d: refine returned %v after %d calls, want %v", desc, n, got, calls, seen[n])
		}
	}
}

// TestRefineCP is the refinement property over random byte, RLE and
// float masks, regions (empty, 1-px-wide, off-grid, full-frame, partly
// outside), ranges (edge-aligned, off-edge, band, top-closed, empty)
// and configs (cells from 1x1 to larger than the mask, 1-16 edges).
func TestRefineCP(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 400; iter++ {
		w, h := 1+rng.Intn(40), 1+rng.Intn(40)
		cfg := Config{CellW: 1 + rng.Intn(w+3), CellH: 1 + rng.Intn(h+3), Edges: DefaultEdges(1 + rng.Intn(16))}
		if rng.Intn(4) == 0 {
			cfg = randomConfig(rng)
		}
		var bm *Mask
		switch rng.Intn(3) {
		case 0:
			bm = bimodalByteMask(rng, w, h)
		case 1:
			bm = randomByteMask(rng, w, h)
		default:
			bm = patchworkByteMask(rng, w, h, cfg.CellW, cfg.CellH)
		}
		norm, err := cfg.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range backings(t, bm) {
			for probe := 0; probe < 6; probe++ {
				roi := randomROI(rng, w, h)
				switch rng.Intn(6) {
				case 0: // one pixel wide
					x := rng.Intn(w)
					roi = Rect{x, 0, x + 1, h}
				case 1: // cell-aligned
					roi = Rect{0, 0, min(w, cfg.CellW*(1+rng.Intn(3))), min(h, cfg.CellH*(1+rng.Intn(3)))}
				}
				vr := randomVR(rng)
				switch e := norm.Edges; rng.Intn(4) {
				case 0: // both endpoints on edges
					vr = ValueRange{Lo: e[rng.Intn(len(e))], Hi: e[rng.Intn(len(e))]}
				case 1: // edge-aligned, top-closed
					vr = ValueRange{Lo: e[rng.Intn(len(e))], Hi: 1}
				}
				checkRefine(t, refineCase{m, cfg, roi, vr})
			}
		}
	}
}

// FuzzRefineCP drives the refinement property from fuzzed pixels,
// geometry and ranges; the seeds cover each backing and range kind.
func FuzzRefineCP(f *testing.F) {
	f.Add([]byte{0, 255, 128, 7, 200, 64, 31, 99}, uint8(4), uint8(2), uint8(2), uint8(10), uint8(0), uint8(0), uint8(3), uint8(2), 0.5, 1.0, uint8(0))
	f.Add([]byte{255, 255, 0, 0, 255, 255, 0, 0, 13}, uint8(3), uint8(1), uint8(1), uint8(1), uint8(1), uint8(0), uint8(2), uint8(3), 0.0, 1.0, uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(6), uint8(9), uint8(9), uint8(16), uint8(2), uint8(1), uint8(9), uint8(9), 0.03, 0.04, uint8(2))
	f.Add([]byte{90, 91, 92, 93}, uint8(2), uint8(1), uint8(2), uint8(5), uint8(0), uint8(0), uint8(0), uint8(0), 0.7, 0.3, uint8(3))
	f.Fuzz(func(t *testing.T, pix []byte, w, cellW, cellH, edges, x0, y0, rw, rh uint8, lo, hi float64, backing uint8) {
		if len(pix) == 0 || len(pix) > 4096 || w == 0 || math.IsNaN(lo) || math.IsNaN(hi) || hi < 0 {
			t.Skip()
		}
		mw := int(w)%len(pix) + 1
		mh := len(pix) / mw
		bm := &Mask{W: mw, H: mh, Bytes: pix[:mw*mh]}
		m := backings(t, bm)[int(backing)%4]
		cfg := Config{CellW: int(cellW)%70 + 1, CellH: int(cellH)%70 + 1, Edges: DefaultEdges(int(edges)%16 + 1)}
		roi := Rect{int(x0), int(y0), int(x0) + int(rw), int(y0) + int(rh)}
		checkRefine(t, refineCase{m, cfg, roi, ValueRange{Lo: lo, Hi: hi}})
	})
}

// TestPlanAcrossGeometries runs one term plan over CHIs of different
// geometry and edges: the plan memoizes for the first and must re-derive
// for every one it does not fit, bounds and refinement alike.
func TestPlanAcrossGeometries(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	type indexed struct {
		m   *Mask
		chi *CHI
	}
	var set []indexed
	for i := 0; i < 40; i++ {
		m := bimodalByteMask(rng, 8+8*rng.Intn(3), 8+8*rng.Intn(3))
		chi, err := Build(m, Config{CellW: 2 + 3*rng.Intn(2), CellH: 4, Edges: DefaultEdges(4 + 6*rng.Intn(2))})
		if err != nil {
			t.Fatal(err)
		}
		set = append(set, indexed{m, chi})
	}
	boxes := make([]Rect, len(set))
	for i := range boxes {
		boxes[i] = randomROI(rng, 8, 8)
	}
	for _, region := range []RegionFn{FixedRegion(Rect{3, 1, 14, 9}), func(id int64) Rect { return boxes[id] }} {
		for _, vr := range []ValueRange{{0.5, 1}, {0.25, 0.75}, {0.31, 0.62}} {
			p := &planTerms([]CPTerm{{Region: region, Range: vr}})[0]
			for i, s := range set {
				id := int64(i)
				if got, want := p.bounds(s.chi, id), oracleCPBounds(s.chi, region(id), vr); got != want {
					t.Fatalf("mask %d: planned bounds %v, parent computed %v", i, got, want)
				}
				if got, want := p.refine(s.chi, s.m, id, nil).Lo, ExactCP(s.m, region(id), vr); got != want {
					t.Fatalf("mask %d: refine = %d, ExactCP = %d", i, got, want)
				}
			}
		}
	}
}

// TestFilterAndOfTwoTerms: a filter whose predicate is an And of two CP
// terms refines term by term against the other term's bounds and may
// stop mid-scan; its decisions must equal pred.Eval of the exact values
// on 10 000 random (query, mask) cases, indexed or not, under both
// engines and through the batch executor.
func TestFilterAndOfTwoTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const nMasks, nQueries = 100, 100
	loader := &syncLoader{masks: map[int64]*Mask{}}
	idx := NewMemoryIndex(Config{CellW: 5, CellH: 4, Edges: DefaultEdges(8)})
	ids := make([]int64, nMasks)
	for i := range ids {
		id := int64(i + 1)
		ids[i] = id
		bm := bimodalByteMask(rng, 24, 20)
		loader.masks[id] = backings(t, bm)[rng.Intn(4)]
		if i%5 != 0 { // every fifth mask is unindexed
			idx.Observe(id, bm)
		}
	}
	ops := []Op{OpGt, OpGe, OpLt, OpLe}
	for q := 0; q < nQueries; q++ {
		terms := make([]CPTerm, 2)
		pred := make(And, 2)
		for i := range terms {
			roi := randomROI(rng, 24, 20)
			terms[i] = CPTerm{Region: FixedRegion(roi), Range: randomVR(rng)}
			if rng.Intn(2) == 0 {
				terms[i].Range = ValueRange{Lo: float64(rng.Intn(8)) / 8, Hi: 1}
			}
			pred[i] = Cmp{T: Term(i), Op: ops[rng.Intn(4)], C: int64(rng.Intn(roi.Area() + 2))}
		}
		var want []int64
		for _, id := range ids {
			m := loader.masks[id]
			if pred.Eval([]int64{terms[0].Eval(id, m), terms[1].Eval(id, m)}) {
				want = append(want, id)
			}
		}
		for _, workers := range []int{1, 4} {
			env := &Env{Loader: loader, Index: idx, Exec: Exec{Workers: workers}}
			got, st, err := Filter(context.Background(), env, ids, terms, pred)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("query %d workers %d: Filter = %v, exact evaluation = %v (terms %v pred %v)", q, workers, got, want, terms, pred)
			}
			if st.Loaded+st.AcceptedByBounds+st.RejectedByBounds != st.Targets {
				t.Fatalf("query %d: stats do not partition the targets: %v", q, st)
			}
			rs, err := runBatch(context.Background(), env, []batchQuery{{kind: "filter", targets: ids, terms: terms, pred: pred}})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rs[0].ids, want) || rs[0].st != st {
				t.Fatalf("query %d workers %d: Batch = %v %v, Filter = %v %v", q, workers, rs[0].ids, rs[0].st, want, st)
			}
		}
	}
}

// TestEdgesInterned: every entry of an index — built by Observe, added
// from a private value-equal copy, or read back from the index file —
// views the index's one Edges slice, SizeBytes counts the one page's
// slab and nothing per entry, and a CHI under other edges is not
// indexed.
func TestEdgesInterned(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cfg := Config{CellW: 4, CellH: 4, Edges: DefaultEdges(10)}
	idx := NewMemoryIndex(cfg)
	for id := int64(1); id <= 5; id++ {
		idx.Observe(id, randomByteMask(rng, 8, 8))
	}
	private, err := Build(randomByteMask(rng, 8, 8), Config{CellW: 4, CellH: 4, Edges: DefaultEdges(10)})
	if err != nil {
		t.Fatal(err)
	}
	idx.Add(6, private)
	var buf bytes.Buffer
	if err := idx.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMemoryIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range []*MemoryIndex{idx, back} {
		shared := ix.Config().Edges
		ix.each(func(id int64, c *CHI) {
			if &c.Edges[0] != &shared[0] {
				t.Errorf("mask %d holds a private copy of the index's edges", id)
			}
		})
		if got, want := ix.SizeBytes(), int64(chiPageSize*len(private.Cum)*4); ix.Len() != 6 || got != want {
			t.Errorf("%d entries in %d bytes, want 6 in one page's slab of %d", ix.Len(), got, want)
		}
	}
	other, err := Build(randomByteMask(rng, 8, 8), Config{CellW: 4, CellH: 4, Edges: DefaultEdges(7)})
	if err != nil {
		t.Fatal(err)
	}
	before := idx.SizeBytes()
	idx.Add(7, other)
	if chi, _ := idx.ChiFor(7); chi != nil || idx.Len() != 6 || idx.SizeBytes() != before {
		t.Errorf("a CHI under other edges was indexed: %d entries, %d -> %d bytes", idx.Len(), before, idx.SizeBytes())
	}
}

// TestGeCombinations pins the two single-mode lane comparisons the
// open-topped kernel loops use to the general geCounter.mask.
func TestGeCombinations(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for n := 0; n <= 256; n++ {
		g := geCounterFor(n)
		for i := 0; i < 200; i++ {
			x := rng.Uint64()
			got := geAnd(x, g.add)
			if g.or != 0 {
				got = geOr(x, g.add)
			}
			if want := g.mask(x); got != want {
				t.Fatalf("threshold %d word %#x: single-mode mask %#x, general mask %#x", n, x, got, want)
			}
		}
	}
}

// TestSelectNth checks the order statistic pruneByBounds prunes by.
func TestSelectNth(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 2000; iter++ {
		s := make([]int64, 1+rng.Intn(60))
		for i := range s {
			s[i] = int64(rng.Intn(1 + rng.Intn(40)))
		}
		sorted := slices.Clone(s)
		slices.Sort(sorted)
		n := rng.Intn(len(s))
		if got := selectNth(s, n); got != sorted[n] {
			t.Fatalf("selectNth(%v, %d) = %d, want %d", sorted, n, got, sorted[n])
		}
	}
}

// benchIndex is 4 500 saliency-shaped 128x128 masks' worth of CHIs at
// the facade's default granularity — the explore workloads' shape —
// plus one object box per mask.
func benchIndex(tb testing.TB) ([]*CHI, []Rect) {
	rng := rand.New(rand.NewSource(22))
	cfg := Config{CellW: 32, CellH: 32, Edges: DefaultEdges(10)}
	chis, boxes := make([]*CHI, 4500), make([]Rect, 4500)
	for i := range chis {
		chi, err := Build(bimodalByteMask(rng, 128, 128), cfg)
		if err != nil {
			tb.Fatal(err)
		}
		x0, y0 := rng.Intn(80), rng.Intn(80)
		chis[i], boxes[i] = chi, Rect{x0, y0, x0 + 25 + rng.Intn(23), y0 + 25 + rng.Intn(23)}
	}
	return chis, boxes
}

// BenchmarkCPBounds is the bounds layer, reported per mask: one pass in
// id order over 4 500 CHIs under one query's plan, for a fixed rect
// (memoized cover) and per-mask object boxes; oneoff is CHI.CPBounds,
// which derives a plan per call. The index cases take each CHI from a
// MemoryIndex through ChiFor, as the engine does: index-built holds
// the same CHIs added in shuffled id order, index-read that index
// written out and read back, so both see the index's layout.
func BenchmarkCPBounds(b *testing.B) {
	chis, boxes := benchIndex(b)
	vr := ValueRange{0.6, 1}
	rect := Rect{30, 20, 74, 64}
	built := NewMemoryIndex(chis[0].Config())
	for _, i := range rand.New(rand.NewSource(24)).Perm(len(chis)) {
		built.Add(int64(i+1), chis[i])
	}
	var file bytes.Buffer
	if err := built.Encode(&file); err != nil {
		b.Fatal(err)
	}
	read, err := ReadMemoryIndex(&file)
	if err != nil {
		b.Fatal(err)
	}
	run := func(name string, region RegionFn, bounds func(p *termPlan, i int) Bounds) {
		b.Run(name, func(b *testing.B) {
			p := &planTerms([]CPTerm{{Region: region, Range: vr}})[0]
			for b.Loop() {
				for i := range chis {
					benchSink += bounds(p, i).Hi
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(chis)), "ns/mask")
		})
	}
	planned := func(p *termPlan, i int) Bounds { return p.bounds(chis[i], int64(i)) }
	run("rect", FixedRegion(rect), planned)
	run("object", func(id int64) Rect { return boxes[id] }, planned)
	run("rect/oneoff", nil, func(_ *termPlan, i int) Bounds { return chis[i].CPBounds(rect, vr) })
	for name, ix := range map[string]*MemoryIndex{"index-built": built, "index-read": read} {
		run(name+"/rect", FixedRegion(rect), func(p *termPlan, i int) Bounds {
			c, _ := ix.ChiFor(int64(i + 1))
			return p.bounds(c, int64(i+1))
		})
	}
}

// BenchmarkBuild is the index-build layer, one saliency-shaped mask per
// op, on each mask form: byte (the raw store's masks, counted cell by
// cell through the byte tables), rle (whole runs folded through the
// value→bin LUT) and float (a binary search per pixel). Two shapes at
// the facade's default granularity: 128x128 under 32² cells (the
// wilds-sim masks) and 64x64 under 16² cells (imagenet-sim). "build" is
// the one-off Build, which makes its tables per call; "index" is
// MemoryIndex.Observe, which reuses its index's. "portable" counts the
// byte form's cells through lutCell alone, the kernel that runs where
// geCount9 does not. ns/px compares directly with the verification
// kernel's core.kernel_ns_per_px.
func BenchmarkBuild(b *testing.B) {
	big := benchRLEMask(b).Decoded()
	half := make([]byte, 64*64)
	for y := range 64 {
		for x := range 64 {
			half[y*64+x] = big.Bytes[2*y*128+2*x]
		}
	}
	small := &Mask{W: 64, H: 64, Bytes: half}
	shapes := []struct {
		m    *Mask
		cell int
	}{{big, 32}, {small, 16}}
	for _, form := range []string{"byte", "rle", "float"} {
		for _, sh := range shapes {
			m := sh.m
			switch form {
			case "rle":
				m = withRowDir(b, EncodeRLE(m.Bytes, m.W, m.H), m.W, m.H)
			case "float":
				m = m.ToFloat()
			}
			cfg := Config{CellW: sh.cell, CellH: sh.cell, Edges: DefaultEdges(10)}
			px := float64(m.W * m.H)
			b.Run(fmt.Sprintf("%s/%dx%d/build", form, m.W, m.H), func(b *testing.B) {
				for b.Loop() {
					if _, err := Build(m, cfg); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/px, "ns/px")
			})
			b.Run(fmt.Sprintf("%s/%dx%d/index", form, m.W, m.H), func(b *testing.B) {
				// A fresh index per page of ids keeps every Observe a
				// build without growing the index for the whole run.
				ix, id := NewMemoryIndex(cfg), int64(0)
				for b.Loop() {
					if id++; id > chiPageSize {
						ix, id = NewMemoryIndex(cfg), 1
					}
					ix.Observe(id, m)
				}
				if ix.Len() == 0 {
					b.Fatal("Observe indexed nothing")
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/px, "ns/px")
			})
		}
	}
	for _, sh := range shapes {
		m, cell := sh.m, sh.cell
		bd := newBuilder(Config{CellW: cell, CellH: cell, Edges: DefaultEdges(10)})
		b.Run(fmt.Sprintf("portable/%dx%d", m.W, m.H), func(b *testing.B) {
			c := bd.header(m.W, m.H)
			c.Cum = make([]int32, c.GW*c.GH*len(c.Edges))
			var lanes [4][256]int32
			for b.Loop() {
				clear(c.Cum)
				for y0 := 0; y0 < m.H; y0 += cell {
					for x0 := 0; x0 < m.W; x0 += cell {
						dst := c.Cum[((y0/cell)*c.GW+x0/cell)*len(c.Edges):][:len(c.Edges)]
						bd.lutCell(dst, m.Bytes, m.W, x0, min(x0+cell, m.W), y0, min(y0+cell, m.H), &lanes)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m.W*m.H), "ns/px")
		})
	}
}

// BenchmarkRefine is the verification layer per loaded mask on the two
// stored codecs: exact (aggregation, sequential top-k), under a τ that
// a third of the way in rules the candidate out (worker-pool top-k),
// and under a filter threshold decided mid-scan.
func BenchmarkRefine(b *testing.B) {
	raw := benchRLEMask(b).Decoded()
	chi, err := Build(raw, Config{CellW: 32, CellH: 32, Edges: DefaultEdges(10)})
	if err != nil {
		b.Fatal(err)
	}
	p := &planTerms([]CPTerm{{Region: FixedRegion(Rect{30, 20, 106, 96}), Range: ValueRange{0.55, 1}}})[0]
	bounds, exact := p.bounds(chi, 0), p.refine(chi, raw, 0, nil).Lo
	tau := NewTauTracker(1, Desc)
	tau.Add(0, bounds.Hi-(bounds.Hi-exact)/3)
	pred := Cmp{T: 0, Op: OpGt, C: bounds.Lo + (exact-bounds.Lo)/3}
	for _, bc := range []struct {
		name string
		stop func(Bounds) bool
	}{
		{"filter-decide", func(bs Bounds) bool { return pred.FromBounds([]Bounds{bs}) != Unknown }},
		{"topk-tau", func(bs Bounds) bool { return tau.SkipID(1, bs) }},
		{"exact", nil},
	} {
		for _, m := range []struct {
			codec string
			m     *Mask
		}{{"raw", raw}, {"rle", benchRLEMask(b)}} {
			b.Run(bc.name+"/"+m.codec, func(b *testing.B) {
				for b.Loop() {
					benchSink += p.refine(chi, m.m, 0, bc.stop).Lo
				}
			})
		}
	}
}

// BenchmarkExactCP is the one-off verification kernel (range quantized
// per call) on a 128x128 byte mask: the near-full frame beside the
// square regions queries typically name, where per-call set-up shows.
func BenchmarkExactCP(b *testing.B) {
	m := benchRLEMask(b).Decoded()
	for _, vr := range []ValueRange{{0.6, 1}, {0.3, 0.6}} {
		for _, roi := range []Rect{{10, 10, 118, 118}, {10, 10, 22, 22}, {10, 10, 54, 54}, {10, 10, 86, 86}} {
			b.Run(fmt.Sprintf("%v/w%d", vr, roi.W()), func(b *testing.B) {
				for b.Loop() {
					benchSink += ExactCP(m, roi, vr)
				}
			})
		}
	}
}
