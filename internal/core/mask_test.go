package core

import (
	"bytes"
	"math/rand"
	"testing"
)

// randomByteMask draws a quantized mask with forced 0 and 255 pixels
// so both histogram extremes are always present.
func randomByteMask(rng *rand.Rand, w, h int) *Mask {
	m := NewByteMask(w, h)
	for i := range m.Bytes {
		switch rng.Intn(8) {
		case 0:
			m.Bytes[i] = 255
		case 1:
			m.Bytes[i] = 0
		default:
			m.Bytes[i] = uint8(rng.Intn(256))
		}
	}
	return m
}

// TestByteBoundsMatchContains pins the quantization: for every byte
// value and many random ranges, membership in the quantized byte
// interval must agree with ValueRange.Contains on the decoded value.
func TestByteBoundsMatchContains(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vrs := []ValueRange{
		{Lo: 0, Hi: 1},
		{Lo: 1, Hi: 1},
		{Lo: 0.5, Hi: 0.5},
		{Lo: -0.3, Hi: 2},
		{Lo: 0.2, Hi: 0.200001},
	}
	for i := 0; i < 500; i++ {
		lo := rng.Float64() * 1.2
		vrs = append(vrs, ValueRange{Lo: lo, Hi: lo + rng.Float64()})
	}
	for _, vr := range vrs {
		if vr.IsEmpty() {
			continue
		}
		bLo, bHi := vr.ByteBounds()
		for b := 0; b < 256; b++ {
			inByte := b >= bLo && b < bHi
			inRange := vr.Contains(byteVal(b))
			if inByte != inRange {
				t.Fatalf("vr %v byte %d (val %.9f): byte interval [%d,%d) says %v, Contains says %v",
					vr, b, byteVal(b), bLo, bHi, inByte, inRange)
			}
		}
	}
}

// TestByteFloatKernelAgreement is the byte-domain correctness
// property: for random quantized masks, the byte-domain ExactCP and
// LUT-based Build must agree exactly with the float64 kernels on the
// converted mask.
func TestByteFloatKernelAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 300; iter++ {
		w, h := 4+rng.Intn(29), 4+rng.Intn(29)
		bm := randomByteMask(rng, w, h)
		fm := bm.ToFloat()
		if fm.Bytes != nil || bm.Pix != nil {
			t.Fatal("backing mixup")
		}
		for probe := 0; probe < 10; probe++ {
			roi := randomROI(rng, w, h)
			vr := randomVR(rng)
			if got, want := ExactCP(bm, roi, vr), ExactCP(fm, roi, vr); got != want {
				t.Fatalf("iter %d: byte ExactCP = %d, float = %d (roi %v vr %v)", iter, got, want, roi, vr)
			}
		}
		cfg := randomConfig(rng)
		bc, err := Build(bm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fc, err := Build(fm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(bc.Cum) != len(fc.Cum) {
			t.Fatalf("iter %d: CHI shapes differ", iter)
		}
		for i := range bc.Cum {
			if bc.Cum[i] != fc.Cum[i] {
				t.Fatalf("iter %d: LUT CHI differs from float CHI at %d: %d vs %d", iter, i, bc.Cum[i], fc.Cum[i])
			}
		}
	}
}

// TestCountRectMatchesReference pins countRect and both of its
// kernels — vecRect (rangeCount16, amd64 only) and the portable
// swarRect — to a per-byte matches loop under full, band, one-byte and
// open-topped ranges: on every row width from 16 to 300 at every X0%16,
// on rows about maxVecWidth wide, and on rects of all-matching pixels
// taller than one accumulator block, where a byte accumulator that
// wrapped past 255 would lose counts.
func TestCountRectMatchesReference(t *testing.T) {
	ranges := [][2]int{{0, 256}, {77, 200}, {130, 131}, {254, 255}, {0, 1}, {100, 256}, {200, 256}, {255, 256}}
	check := func(pix []byte, stride int, r Rect) {
		t.Helper()
		for _, br := range ranges {
			rc := rangeCounter{bLo: br[0], bHi: br[1], cLo: geCounterFor(br[0]), cHi: geCounterFor(br[1])}
			want := int64(0)
			for y := r.Y0; y < r.Y1; y++ {
				for _, b := range pix[y*stride+r.X0 : y*stride+r.X1] {
					if rc.matches(b) {
						want++
					}
				}
			}
			got := map[string]int64{"countRect": rc.countRect(pix, stride, r), "swarRect": rc.swarRect(pix, stride, r)}
			if vecKernels && r.W() >= 16 && r.W() <= maxVecWidth {
				got["vecRect"] = rc.vecRect(pix, stride, r)
			}
			for kernel, n := range got {
				if n != want {
					t.Fatalf("%s of %v (stride %d) in [%d, %d) = %d, per-byte count %d", kernel, r, stride, br[0], br[1], n, want)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(23))
	narrow := randomByteMask(rng, 320, 3)
	for w := 16; w <= 300; w++ {
		for x0 := 0; x0 < 16; x0++ {
			check(narrow.Bytes, narrow.W, Rect{x0, 0, x0 + w, 3})
		}
	}
	wide := randomByteMask(rng, maxVecWidth+40, 2)
	for _, w := range []int{maxVecWidth - 17, maxVecWidth - 1, maxVecWidth, maxVecWidth + 1, maxVecWidth + 16} {
		for _, x0 := range []int{0, 7, 16} {
			check(wide.Bytes, wide.W, Rect{x0, 0, x0 + w, 1})
			check(wide.Bytes, wide.W, Rect{x0, 0, x0 + w, 2})
		}
	}
	for _, sh := range [][2]int{{16, 300}, {64, 300}, {128, 128}, {20, 300}, {100, 200}, {255, 40}} {
		for _, br := range ranges {
			for _, fill := range []int{255, br[0]} {
				pix := bytes.Repeat([]byte{byte(fill)}, (sh[0]+3)*sh[1])
				check(pix, sh[0]+3, Rect{0, 0, sh[0], sh[1]})
				check(pix, sh[0]+3, Rect{3, 0, sh[0] + 3, sh[1]})
			}
		}
	}
}

// TestGeCounterExhaustive verifies the SWAR lane comparison for every
// threshold against every byte value, in every lane position.
func TestGeCounterExhaustive(t *testing.T) {
	for n := 0; n <= 256; n++ {
		g := geCounterFor(n)
		for b := 0; b < 256; b++ {
			want := 0
			if b >= n {
				want = 8
			}
			x := uint64(b) * swarL // byte b in all 8 lanes
			if got := popcnt(g.mask(x)); got != want {
				t.Fatalf("geCounter(%d) on byte %d: counted %d lanes, want %d", n, b, got, want)
			}
		}
	}
	// Mixed-lane spot check across all thresholds.
	x := uint64(0x00_3C_80_FF_01_7F_81_C8)
	lanes := []int{0xC8, 0x81, 0x7F, 0x01, 0xFF, 0x80, 0x3C, 0x00}
	for n := 0; n <= 256; n++ {
		want := 0
		for _, b := range lanes {
			if b >= n {
				want++
			}
		}
		if got := popcnt(geCounterFor(n).mask(x)); got != want {
			t.Fatalf("geCounter(%d) on mixed word: %d lanes, want %d", n, got, want)
		}
	}
}

func popcnt(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// TestByteMaskAccessors covers At/ToFloat on both backings.
func TestByteMaskAccessors(t *testing.T) {
	bm := NewByteMask(4, 2)
	bm.Bytes[5] = 255
	bm.Bytes[2] = 51 // 51/255 = 0.2
	if bm.At(1, 1) != 1.0 {
		t.Fatalf("byte At = %g, want 1", bm.At(1, 1))
	}
	if bm.At(2, 0) != float32(51)/255 {
		t.Fatalf("byte At = %g", bm.At(2, 0))
	}
	fm := bm.ToFloat()
	if fm.At(1, 1) != 1.0 || fm.At(2, 0) != float32(51)/255 {
		t.Fatal("ToFloat lost values")
	}
	if fm.ToFloat() != fm {
		t.Fatal("ToFloat of a float mask should be identity")
	}
	// Set on a byte-backed mask quantizes into the storage domain.
	bm.Set(0, 0, 0.2)
	if bm.Bytes[0] != 51 {
		t.Fatalf("byte Set stored %d, want 51", bm.Bytes[0])
	}
	bm.Set(1, 0, 1.7) // clamped to 1.0
	bm.Set(3, 0, -2)  // clamped to 0.0
	if bm.Bytes[1] != 255 || bm.Bytes[3] != 0 {
		t.Fatalf("byte Set clamping stored %d/%d, want 255/0", bm.Bytes[1], bm.Bytes[3])
	}
	fm.Set(0, 0, 0.25)
	if fm.At(0, 0) != 0.25 {
		t.Fatal("float Set lost value")
	}
}
