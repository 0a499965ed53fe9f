package store

import (
	"testing"

	"masksearch/internal/core"
)

func genTiny(t *testing.T) (string, *Store, *Catalog) {
	t.Helper()
	dir := t.TempDir()
	spec := Spec{Name: "t", Images: 12, Models: 2, W: 16, H: 16, Seed: 5, HumanAttention: true}
	if err := Generate(dir, spec, 1, CodecRaw); err != nil {
		t.Fatal(err)
	}
	st, cat, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return dir, st, cat
}

func TestGenerateOpenRoundTrip(t *testing.T) {
	_, st, cat := genTiny(t)
	wantMasks := 12*2 + 12
	if st.NumMasks() != wantMasks || cat.Len() != wantMasks {
		t.Fatalf("mask counts: store %d, catalog %d, want %d", st.NumMasks(), cat.Len(), wantMasks)
	}
	for _, e := range cat.Entries() {
		if e.Object.Empty() || e.Object.Intersect(core.Rect{X1: 16, Y1: 16}) != e.Object {
			t.Fatalf("mask %d: object box %v outside mask bounds", e.MaskID, e.Object)
		}
		m, err := st.LoadMask(e.MaskID)
		if err != nil {
			t.Fatal(err)
		}
		if m.Bytes == nil {
			t.Fatalf("mask %d: store should serve byte-backed masks", e.MaskID)
		}
		for y := 0; y < m.H; y++ {
			for x := 0; x < m.W; x++ {
				if v := m.At(x, y); v < 0 || v > 1 {
					t.Fatalf("mask %d: pixel value %g out of [0,1]", e.MaskID, v)
				}
			}
		}
	}
	human := cat.MaskIDs(func(e *Entry) bool { return e.MaskType == TypeHumanAttention })
	if len(human) != 12 {
		t.Fatalf("human attention masks: %d, want 12", len(human))
	}
}

func TestLoadRegionMatchesMask(t *testing.T) {
	_, st, _ := genTiny(t)
	m, err := st.LoadMask(3)
	if err != nil {
		t.Fatal(err)
	}
	r := core.Rect{X0: 2, Y0: 5, X1: 11, Y1: 13}
	sub, err := st.LoadRegion(3, r)
	if err != nil {
		t.Fatal(err)
	}
	if sub.W != r.W() || sub.H != r.H() {
		t.Fatalf("region dims %dx%d, want %dx%d", sub.W, sub.H, r.W(), r.H())
	}
	for y := 0; y < sub.H; y++ {
		for x := 0; x < sub.W; x++ {
			if sub.At(x, y) != m.At(x+r.X0, y+r.Y0) {
				t.Fatalf("region pixel (%d,%d) differs from mask", x, y)
			}
		}
	}
	vr := core.ValueRange{Lo: 0.4, Hi: 1.0}
	if core.ExactCP(sub, sub.Bounds(), vr) != core.ExactCP(m, r, vr) {
		t.Fatal("CP over region load differs from CP over full mask")
	}
}

// TestReadStatsAndThrottle pins the charge of each access path: a
// whole-mask load charges its stored bytes, a region read its area.
func TestReadStatsAndThrottle(t *testing.T) {
	_, st, _ := genTiny(t)
	before := st.Stats()
	if _, err := st.LoadMask(1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadRegion(2, core.Rect{X0: 0, Y0: 0, X1: 4, Y1: 4}); err != nil {
		t.Fatal(err)
	}
	s := st.Stats().Sub(before)
	if s.MasksLoaded != 1 || s.RegionReads != 1 || s.BytesRead != 16*16+16 {
		t.Fatalf("stats %+v, want 1 mask, 1 region, %d bytes", s, 16*16+16)
	}
}

func TestLoadMaskBounds(t *testing.T) {
	_, st, _ := genTiny(t)
	if _, err := st.LoadMask(0); err == nil {
		t.Fatal("id 0 should fail")
	}
	if _, err := st.LoadMask(int64(st.NumMasks()) + 1); err == nil {
		t.Fatal("id beyond catalog should fail")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	dir1, st1, _ := genTiny(t)
	_ = dir1
	dir2 := t.TempDir()
	if err := Generate(dir2, Spec{Name: "t", Images: 12, Models: 2, W: 16, H: 16, Seed: 5, HumanAttention: true}, 1, CodecRaw); err != nil {
		t.Fatal(err)
	}
	st2, _, err := Open(dir2)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for id := int64(1); id <= int64(st1.NumMasks()); id++ {
		a, err := st1.LoadMask(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := st2.LoadMask(id)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Bytes {
			if a.Bytes[i] != b.Bytes[i] {
				t.Fatalf("mask %d differs between identical-seed generations", id)
			}
		}
	}
}

// TestLoadRegionFullWidth pins the coalesced single-ReadAt path: a
// full-width region must match per-pixel reads and keep the exact
// same stats accounting as the row-loop path.
func TestLoadRegionFullWidth(t *testing.T) {
	_, st, _ := genTiny(t)
	m, err := st.LoadMask(5)
	if err != nil {
		t.Fatal(err)
	}
	r := core.Rect{X0: 0, Y0: 3, X1: 16, Y1: 12}
	before := st.Stats()
	sub, err := st.LoadRegion(5, r)
	if err != nil {
		t.Fatal(err)
	}
	s := st.Stats().Sub(before)
	if s.RegionReads != 1 || s.BytesRead != int64(r.Area()) || s.MasksLoaded != 0 {
		t.Fatalf("full-width region stats %+v, want 1 region / %d bytes", s, r.Area())
	}
	for y := 0; y < sub.H; y++ {
		for x := 0; x < sub.W; x++ {
			if sub.At(x, y) != m.At(x+r.X0, y+r.Y0) {
				t.Fatalf("full-width region pixel (%d,%d) differs from mask", x, y)
			}
		}
	}
}

// TestReleaseMaskPool checks that released mask buffers are recycled
// and that reloads into a pooled buffer return the right pixels.
func TestReleaseMaskPool(t *testing.T) {
	_, st, _ := genTiny(t)
	a, err := st.LoadMask(1)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]uint8(nil), a.Bytes...)
	st.ReleaseMask(a)
	b, err := st.LoadMask(2)
	if err != nil {
		t.Fatal(err)
	}
	// The pool is best-effort (GC may drop entries), so buffer reuse
	// itself is not asserted — only that a reload after release, into
	// whatever buffer comes back, returns the right pixels.
	st.ReleaseMask(b)
	c, err := st.LoadMask(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Bytes {
		if c.Bytes[i] != want[i] {
			t.Fatalf("pooled reload of mask 1 corrupted pixel %d", i)
		}
	}
	// Foreign-shaped masks must be ignored, not pooled.
	st.ReleaseMask(core.NewByteMask(3, 3))
	st.ReleaseMask(nil)
	st.ReleaseMask(core.NewMask(16, 16)) // float-backed
}
