package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// testPixels returns a w*h pixel buffer with saliency-like structure:
// flat plateaus, gradients and speckle, exercising repeat runs,
// literal runs and their boundaries.
func testPixels(rng *rand.Rand, w, h int) []byte {
	pix := make([]byte, w*h)
	for y := 0; y < h; y++ {
		x := 0
		for x < w {
			switch rng.Intn(3) {
			case 0: // plateau
				n := min(1+rng.Intn(2*w), w-x)
				v := byte(rng.Intn(256))
				for i := 0; i < n; i++ {
					pix[y*w+x+i] = v
				}
				x += n
			case 1: // gradient (all-literal)
				n := min(1+rng.Intn(w), w-x)
				v := rng.Intn(256)
				for i := 0; i < n; i++ {
					pix[y*w+x+i] = byte((v + i) % 256)
				}
				x += n
			default: // speckle
				n := min(1+rng.Intn(w/2+1), w-x)
				for i := 0; i < n; i++ {
					pix[y*w+x+i] = byte(rng.Intn(256))
				}
				x += n
			}
		}
	}
	return pix
}

func TestRLERoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dims := [][2]int{{1, 1}, {3, 5}, {7, 2}, {8, 8}, {64, 64}, {129, 3}, {130, 4}, {300, 2}}
	for _, d := range dims {
		w, h := d[0], d[1]
		for trial := 0; trial < 20; trial++ {
			pix := testPixels(rng, w, h)
			rle := EncodeRLE(pix, w, h)
			if err := ValidateRLE(rle, w, h); err != nil {
				t.Fatalf("%dx%d: encoder produced invalid stream: %v", w, h, err)
			}
			if len(rle) > RLEBound(w, h) {
				t.Fatalf("%dx%d: stream of %d bytes exceeds RLEBound %d", w, h, len(rle), RLEBound(w, h))
			}
			dst := make([]byte, w*h)
			if err := DecodeRLE(rle, w, h, dst); err != nil {
				t.Fatalf("%dx%d: decode: %v", w, h, err)
			}
			if !bytes.Equal(dst, pix) {
				t.Fatalf("%dx%d: round trip mismatch", w, h)
			}
			// Canonical encoding: encode∘decode is a fixed point.
			if again := EncodeRLE(dst, w, h); !bytes.Equal(again, rle) {
				t.Fatalf("%dx%d: re-encoding decoded pixels changed the stream", w, h)
			}
		}
	}
}

func TestRLELongRuns(t *testing.T) {
	// Runs far beyond the 129-pixel repeat cap, including lengths that
	// would strand a 1-pixel remainder (130 = 129+1 must split as
	// 128+2, not 129+1).
	for _, w := range []int{129, 130, 131, 258, 259, 1000} {
		pix := bytes.Repeat([]byte{200}, w)
		rle := EncodeRLE(pix, w, 1)
		dst := make([]byte, w)
		if err := DecodeRLE(rle, w, 1, dst); err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if !bytes.Equal(dst, pix) {
			t.Fatalf("w=%d: round trip mismatch", w)
		}
		if want := 2 * ((w + 128) / 129); len(rle) > want+2 {
			t.Fatalf("w=%d: constant row encoded to %d bytes", w, len(rle))
		}
	}
}

func TestDecodeRLERejects(t *testing.T) {
	cases := []struct {
		name string
		rle  []byte
		w, h int
	}{
		{"empty stream", nil, 4, 1},
		{"truncated literal", []byte{3, 1, 2}, 4, 1},
		{"truncated repeat", []byte{130}, 4, 1},
		{"literal overflows row", []byte{7, 1, 2, 3, 4, 5, 6, 7, 8}, 4, 1},
		{"repeat overflows row", []byte{131, 9}, 4, 1}, // 5 pixels into width 4
		{"trailing bytes", []byte{129, 7, 0, 5}, 3, 1},
		{"missing row", []byte{129, 7}, 3, 2},
		{"run crosses row boundary", []byte{133, 7}, 4, 2}, // 7 pixels into width 4
	}
	for _, tc := range cases {
		dst := make([]byte, tc.w*tc.h)
		if err := DecodeRLE(tc.rle, tc.w, tc.h, dst); err == nil {
			t.Errorf("%s: decode accepted an invalid stream", tc.name)
		}
		if err := ValidateRLE(tc.rle, tc.w, tc.h); err == nil {
			t.Errorf("%s: validate accepted an invalid stream", tc.name)
		}
	}
	if err := DecodeRLE([]byte{0, 1}, 1, 1, make([]byte, 2)); err == nil {
		t.Error("decode accepted a wrong-sized dst")
	}
}

// TestExactCPRLEEquivalence checks the compute-on-compressed kernel
// against the byte-domain kernel on every backing, across random ROIs
// and value ranges including the quantization-sensitive endpoints.
func TestExactCPRLEEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ranges := []ValueRange{
		{0, 1}, {0.5, 1}, {0.25, 0.75}, {0, 0.001}, {0.999, 1},
		{0.5, 0.5}, {1, 1}, {128.0 / 255, 129.0 / 255},
	}
	for _, d := range [][2]int{{5, 7}, {8, 8}, {33, 17}, {64, 64}} {
		w, h := d[0], d[1]
		for trial := 0; trial < 10; trial++ {
			pix := testPixels(rng, w, h)
			bm := &Mask{W: w, H: h, Bytes: pix}
			rm := &Mask{W: w, H: h, RLE: EncodeRLE(pix, w, h)}
			rois := []Rect{
				{0, 0, w, h}, {0, 0, 1, 1}, {w / 3, h / 3, w, h},
				{rng.Intn(w), rng.Intn(h), 1 + rng.Intn(w), 1 + rng.Intn(h)},
			}
			for _, roi := range rois {
				for _, vr := range ranges {
					got := ExactCP(rm, roi, vr)
					want := ExactCP(bm, roi, vr)
					if got != want {
						t.Fatalf("%dx%d roi=%v vr=%v: rle=%d bytes=%d", w, h, roi, vr, got, want)
					}
				}
			}
		}
	}
}

// TestBuildRLEEquivalence checks that CHI construction folds runs
// through the LUT into exactly the counts the byte path produces.
func TestBuildRLEEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfgs := []Config{
		{CellW: 4, CellH: 4, Edges: DefaultEdges(10)},
		{CellW: 7, CellH: 3, Edges: DefaultEdges(4)},
		{CellW: 64, CellH: 64, Edges: DefaultEdges(16)},
	}
	for _, d := range [][2]int{{13, 9}, {32, 32}, {65, 33}} {
		w, h := d[0], d[1]
		pix := testPixels(rng, w, h)
		bm := &Mask{W: w, H: h, Bytes: pix}
		rm := &Mask{W: w, H: h, RLE: EncodeRLE(pix, w, h)}
		for _, cfg := range cfgs {
			bc, err := Build(bm, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rc, err := Build(rm, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !int32sEqual(bc.Cum, rc.Cum) {
				t.Fatalf("%dx%d cfg=%s: CHI differs between byte and rle backings", w, h, cfg.Key())
			}
		}
	}
}

func int32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRLEAccessors checks the decode-then-scan fallbacks: At walks
// runs, Decoded materializes bytes, ToFloat converts, Set refuses.
func TestRLEAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w, h := 19, 11
	pix := testPixels(rng, w, h)
	rm := &Mask{W: w, H: h, RLE: EncodeRLE(pix, w, h)}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if got, want := rm.At(x, y), float32(pix[y*w+x])/255; got != want {
				t.Fatalf("At(%d,%d) = %v, want %v", x, y, got, want)
			}
		}
	}
	dec := rm.Decoded()
	if !bytes.Equal(dec.Bytes, pix) {
		t.Fatal("Decoded bytes differ from source pixels")
	}
	ff := rm.ToFloat()
	if ff.Pix[3] != float32(pix[3])/255 {
		t.Fatal("ToFloat mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Set on an RLE-backed mask did not panic")
		}
	}()
	rm.Set(0, 0, 0.5)
}

// FuzzRLE fuzzes both directions of the codec: arbitrary pixels must
// round-trip through encode→decode with a canonical (fixed-point)
// stream, and the decoder must reject arbitrary invalid streams —
// truncated, overlapping, or trailing — without panicking, while
// accepting and round-tripping anything ValidateRLE accepts.
func FuzzRLE(f *testing.F) {
	f.Add(uint8(4), uint8(3), []byte{1, 2, 3, 4, 4, 4, 4, 4})
	f.Add(uint8(1), uint8(1), []byte{0})
	f.Add(uint8(8), uint8(2), []byte{129, 7, 3, 1, 2, 3, 4})
	f.Add(uint8(16), uint8(16), bytes.Repeat([]byte{200}, 64))
	f.Fuzz(func(t *testing.T, bw, bh uint8, data []byte) {
		w, h := int(bw%64)+1, int(bh%64)+1

		// Direction 1: data as pixels (cycle-extended to w*h).
		pix := make([]byte, w*h)
		for i := range pix {
			if len(data) > 0 {
				pix[i] = data[i%len(data)]
			}
		}
		rle := EncodeRLE(pix, w, h)
		if err := ValidateRLE(rle, w, h); err != nil {
			t.Fatalf("encoder produced invalid stream: %v", err)
		}
		dst := make([]byte, w*h)
		if err := DecodeRLE(rle, w, h, dst); err != nil {
			t.Fatalf("decode of encoder output: %v", err)
		}
		if !bytes.Equal(dst, pix) {
			t.Fatal("round trip mismatch")
		}
		if again := EncodeRLE(dst, w, h); !bytes.Equal(again, rle) {
			t.Fatal("encoding is not a fixed point of encode∘decode")
		}
		if len(rle) > RLEBound(w, h) {
			t.Fatalf("stream of %d bytes exceeds RLEBound %d", len(rle), RLEBound(w, h))
		}

		// Direction 2: data as a hostile stream. Must never panic, and
		// validate/decode must agree on acceptance.
		vErr := ValidateRLE(data, w, h)
		dErr := DecodeRLE(data, w, h, dst)
		if (vErr == nil) != (dErr == nil) {
			t.Fatalf("validate err=%v but decode err=%v", vErr, dErr)
		}
		// The fused validate+directory walk accepts exactly what
		// ValidateRLE accepts, and every offset it records is a row
		// boundary of the decode.
		dir := make([]uint32, h)
		if iErr := IndexRLE(data, w, h, dir); (iErr == nil) != (vErr == nil) {
			t.Fatalf("validate err=%v but index err=%v", vErr, iErr)
		}
		if vErr == nil {
			checkRowDir(t, data, w, h, dir)
			// An accepted stream is a real mask: kernels must agree with
			// the decoded bytes.
			rm := &Mask{W: w, H: h, RLE: data}
			bm := &Mask{W: w, H: h, Bytes: append([]byte(nil), dst...)}
			roi := Rect{0, 0, w, h}
			vr := ValueRange{0.5, 1}
			if got, want := ExactCP(rm, roi, vr), ExactCP(bm, roi, vr); got != want {
				t.Fatalf("ExactCP on accepted stream: rle=%d bytes=%d", got, want)
			}
		}
	})
}

// checkRowDir asserts that dir is the row directory of the valid
// stream rle: the offsets start at 0 and cut the stream into h
// segments, each of which decodes as exactly one row.
func checkRowDir(t *testing.T, rle []byte, w, h int, dir []uint32) {
	t.Helper()
	if len(dir) != h || dir[0] != 0 {
		t.Fatalf("directory has %d entries starting at %d, want %d starting at 0", len(dir), dir[0], h)
	}
	row := make([]byte, w)
	for y := 0; y < h; y++ {
		end := len(rle)
		if y+1 < h {
			end = int(dir[y+1])
		}
		if int(dir[y]) > end || end > len(rle) {
			t.Fatalf("row %d recorded at [%d, %d) of a %d-byte stream", y, dir[y], end, len(rle))
		}
		if err := DecodeRLE(rle[dir[y]:end], w, 1, row); err != nil {
			t.Fatalf("row %d: [%d, %d) is not one row of the stream: %v", y, dir[y], end, err)
		}
	}
}

// withRowDir returns an RLE-backed mask over rle carrying the row
// directory IndexRLE builds, the way the store serves it.
func withRowDir(t testing.TB, rle []byte, w, h int) *Mask {
	t.Helper()
	dir := make([]uint32, h)
	if err := IndexRLE(rle, w, h, dir); err != nil {
		t.Fatal(err)
	}
	return &Mask{W: w, H: h, RLE: rle, RowDir: dir}
}

// TestIndexRLE checks the fused walk against ValidateRLE and the
// decoder on encoder output of many shapes, and its argument checks.
func TestIndexRLE(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range [][2]int{{1, 1}, {3, 5}, {8, 8}, {33, 17}, {64, 63}, {130, 6}} {
		w, h := d[0], d[1]
		rle := EncodeRLE(testPixels(rng, w, h), w, h)
		checkRowDir(t, rle, w, h, withRowDir(t, rle, w, h).RowDir)
		// A corrupted stream is rejected with or without a directory.
		bad := append([]byte(nil), rle[:len(rle)-1]...)
		if IndexRLE(bad, w, h, make([]uint32, h)) == nil || ValidateRLE(bad, w, h) == nil {
			t.Fatalf("%dx%d: truncated stream accepted", w, h)
		}
	}
	if IndexRLE([]byte{0, 1}, 1, 1, make([]uint32, 2)) == nil {
		t.Fatal("IndexRLE accepted a wrong-sized directory")
	}
}

// TestExactCPRLERowDir checks that seeking through a row directory
// changes no count: with and without one, exactCPRLE equals the
// byte-domain kernel on the decoded mask, for random rects and the
// edge rects a seek could get wrong.
func TestExactCPRLERowDir(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ranges := []ValueRange{{0.5, 1}, {0.25, 0.75}, {0, 0.001}, {128.0 / 255, 129.0 / 255}}
	for _, d := range [][2]int{{5, 7}, {8, 8}, {33, 17}, {64, 63}, {130, 6}, {16, 1}} {
		w, h := d[0], d[1]
		for trial := 0; trial < 10; trial++ {
			pix := testPixels(rng, w, h)
			rle := EncodeRLE(pix, w, h)
			bm := &Mask{W: w, H: h, Bytes: pix}
			plain := &Mask{W: w, H: h, RLE: rle}
			seek := withRowDir(t, rle, w, h)
			y, x := rng.Intn(h), rng.Intn(w)
			rois := []Rect{
				{0, 0, w, h},         // Y0 = 0 and Y1 = H
				{0, y, w, h},         // Y1 = H
				{0, 0, w, y + 1},     // Y0 = 0
				{0, y, w, y + 1},     // single row
				{x, 0, x + 1, h},     // single column
				{x, y, x + 1, y + 1}, // single pixel
				{0, h - 1, w, h},     // last row
			}
			for i := 0; i < 8; i++ {
				x0, y0 := rng.Intn(w), rng.Intn(h)
				rois = append(rois, Rect{x0, y0, x0 + 1 + rng.Intn(w-x0), y0 + 1 + rng.Intn(h-y0)})
			}
			for _, roi := range rois {
				for _, vr := range ranges {
					want := ExactCP(bm, roi, vr)
					if got := ExactCP(plain, roi, vr); got != want {
						t.Fatalf("%dx%d roi=%v vr=%v: no directory: rle=%d bytes=%d", w, h, roi, vr, got, want)
					}
					if got := ExactCP(seek, roi, vr); got != want {
						t.Fatalf("%dx%d roi=%v vr=%v: with directory: rle=%d bytes=%d", w, h, roi, vr, got, want)
					}
				}
			}
		}
	}
}

// benchRLEMask is a 128x128 saliency-shaped mask in the RLE layout, the
// shape the wilds-sim generator writes: 4-px-block background noise
// (short repeat runs) under a Gaussian blob (literal runs).
func benchRLEMask(tb testing.TB) *Mask {
	const w, h = 128, 128
	rng := rand.New(rand.NewSource(7))
	pix := make([]byte, w*h)
	noise := make([]float64, (w/4)*(h/4))
	for i := range noise {
		noise[i] = 0.12 * rng.Float64()
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dx, dy := float64(x-70), float64(y-60)
			v := 0.9*math.Exp(-(dx*dx+dy*dy)/(2*18*18)) + noise[(y/4)*(w/4)+x/4]
			pix[y*w+x] = byte(math.Round(min(v, 1) * 255))
		}
	}
	return withRowDir(tb, EncodeRLE(pix, w, h), w, h)
}

var benchSink int64

// BenchmarkExactCPRLE is the verification kernel's layer benchmark on
// the compressed form: the same 32-row rect at the top and at the
// bottom of the mask, with the row directory (the store's masks) and
// without (the walk from row 0 through every row's end).
// bottom-rect/walk pays for 96 rows it does not count; with the
// directory the two rects cost the same.
func BenchmarkExactCPRLE(b *testing.B) {
	m := benchRLEMask(b)
	rc := newRangeCounter(ValueRange{0.6, 1})
	for _, bc := range []struct {
		name string
		roi  Rect
	}{
		{"top-rect", Rect{32, 0, 96, 32}},
		{"bottom-rect", Rect{32, 96, 96, 128}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(bc.roi.Area()))
			for b.Loop() {
				benchSink += exactCPRLE(m, bc.roi, &rc)
			}
		})
		b.Run(bc.name+"/walk", func(b *testing.B) {
			plain := &Mask{W: m.W, H: m.H, RLE: m.RLE}
			b.SetBytes(int64(bc.roi.Area()))
			for b.Loop() {
				benchSink += exactCPRLE(plain, bc.roi, &rc)
			}
		})
	}
}

// BenchmarkValidateRLE is the cost the store pays once per mask per
// open: the bare validating walk, and the same walk recording the row
// directory.
func BenchmarkValidateRLE(b *testing.B) {
	m := benchRLEMask(b)
	b.Run("validate", func(b *testing.B) {
		b.SetBytes(int64(len(m.RLE)))
		for b.Loop() {
			if err := ValidateRLE(m.RLE, m.W, m.H); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("index", func(b *testing.B) {
		dir := make([]uint32, m.H)
		b.SetBytes(int64(len(m.RLE)))
		for b.Loop() {
			if err := IndexRLE(m.RLE, m.W, m.H, dir); err != nil {
				b.Fatal(err)
			}
		}
	})
}
