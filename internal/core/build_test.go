package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refCum is the CHI counts by definition: each pixel's bin by binary
// search over the decoded byte value, then a suffix sum per cell.
func refCum(pix []byte, w, h int, cfg Config) []int32 {
	cfg, err := cfg.Normalize()
	if err != nil {
		panic(err)
	}
	k := len(cfg.Edges)
	gw := (w + cfg.CellW - 1) / cfg.CellW
	gh := (h + cfg.CellH - 1) / cfg.CellH
	cum := make([]int32, gw*gh*k)
	for y := range h {
		for x := range w {
			cell := (y/cfg.CellH)*gw + x/cfg.CellW
			cum[cell*k+binIndex(cfg.Edges, byteVal(int(pix[y*w+x])))]++
		}
	}
	for cell := range gw * gh {
		for j := k - 2; j >= 0; j-- {
			cum[cell*k+j] += cum[cell*k+j+1]
		}
	}
	return cum
}

// checkBuild builds pix under cfg from both byte-valued mask forms —
// the byte kernel and the RLE path — and requires the counts refCum
// gives, in a CHI that ReadMemoryIndex would accept.
func checkBuild(t *testing.T, pix []byte, w, h int, cfg Config) {
	t.Helper()
	want := refCum(pix, w, h, cfg)
	bm := &Mask{W: w, H: h, Bytes: pix}
	for _, f := range []struct {
		name string
		m    *Mask
	}{{"byte", bm}, {"rle", &Mask{W: w, H: h, RLE: EncodeRLE(pix, w, h)}}} {
		c, err := Build(f.m, cfg)
		if err != nil {
			t.Fatalf("%s %dx%d %s: %v", f.name, w, h, cfg.Key(), err)
		}
		if !slices.Equal(c.Cum, want) {
			t.Fatalf("%s %dx%d cells %dx%d, %d edges: counts differ from the reference", f.name, w, h, cfg.CellW, cfg.CellH, len(c.Edges))
		}
		if err := c.validate(c.Config()); err != nil {
			t.Fatalf("%s %dx%d %s: built CHI fails validation: %v", f.name, w, h, cfg.Key(), err)
		}
	}
}

// TestBuildMatchesReference: both mask forms build the reference
// counts across geometries (1-pixel and odd sizes, partial cells),
// cell sizes (1x1 up to larger than the mask), edge counts (one edge,
// the default 10, 16, one per byte value, more edges than byte values,
// and edges exactly on and just below byte values) and pixel content
// (uniform at both extremes, random, long runs). Then the cells
// geCount9 takes, widths a multiple of 16: 16², 32², 48×17, a 16×300
// and a 48×300 cell whose rows the kernel takes in blocks, and partial
// cells at the right and bottom edges of 65- and 320-wide masks, under
// edge sets on both sides of its 10-bin limit, among them on-byte
// edges with empty bins between.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var onByte []float64
	for _, b := range []int{1, 2, 3, 25, 26, 64, 127, 128, 200, 229, 254, 255} {
		v := byteVal(b)
		onByte = append(onByte, v, math.Nextafter(v, 0))
	}
	edgeSets := [][]float64{{0}, DefaultEdges(10), DefaultEdges(16), DefaultEdges(256), DefaultEdges(700), onByte}
	sizes := []int{1, 3, 13, 64, 65, 128}
	for _, w := range sizes {
		for _, h := range sizes {
			runs := make([]byte, w*h)
			for i := 0; i < len(runs); {
				n, v := 1+rng.Intn(3*w), byte(rng.Intn(256))
				for ; n > 0 && i < len(runs); n, i = n-1, i+1 {
					runs[i] = v
				}
			}
			random := make([]byte, w*h)
			rng.Read(random)
			full := slices.Repeat([]byte{255}, w*h)
			for _, pix := range [][]byte{make([]byte, w*h), full, random, runs} {
				for _, cell := range [][2]int{{1, 1}, {3, 7}, {max(1, w/4), max(1, h/4)}, {w + 5, h + 3}} {
					for _, edges := range edgeSets {
						// 1x1 cells make every pixel a cell of k counts;
						// past 13x13 the many-edge sets only repeat the
						// same one-pixel walks at w*h*k counts apiece.
						if cell == [2]int{1, 1} && len(edges) >= 256 && w*h > 13*13 {
							continue
						}
						checkBuild(t, pix, w, h, Config{CellW: cell[0], CellH: cell[1], Edges: edges})
					}
				}
			}
		}
	}
	vecEdges := [][]float64{{0}, DefaultEdges(2), DefaultEdges(10), DefaultEdges(11), onByte[:18], onByte}
	for _, g := range [][4]int{
		{64, 64, 16, 16}, {128, 128, 32, 32}, {96, 51, 48, 17},
		{32, 600, 16, 300}, {96, 600, 48, 300},
		{65, 33, 16, 16}, {65, 70, 32, 32}, {320, 40, 48, 16},
	} {
		w, h := g[0], g[1]
		random := make([]byte, w*h)
		rng.Read(random)
		for _, pix := range [][]byte{make([]byte, w*h), slices.Repeat([]byte{255}, w*h), random, testPixels(rng, w, h)} {
			for _, edges := range vecEdges {
				checkBuild(t, pix, w, h, Config{CellW: g[2], CellH: g[3], Edges: edges})
			}
		}
	}
}

// TestGECellMatchesLUT counts every cell of the two benchmark shapes
// under the default edges through vecCell and through lutCell and
// requires the same counts: the kernel that runs against the portable
// one it replaces.
func TestGECellMatchesLUT(t *testing.T) {
	if !vecKernels {
		t.Skip("no geCount9 kernel on this platform")
	}
	rng := rand.New(rand.NewSource(9))
	for _, sh := range [][2]int{{128, 32}, {64, 16}} {
		n, cell := sh[0], sh[1]
		bd := newBuilder(Config{CellW: cell, CellH: cell, Edges: DefaultEdges(10)})
		if !bd.geCell {
			t.Fatalf("%dx%d: the default edges do not take the kernel", n, n)
		}
		random := make([]byte, n*n)
		rng.Read(random)
		for _, pix := range [][]byte{random, testPixels(rng, n, n)} {
			var lanes [4][256]int32
			for y0 := 0; y0 < n; y0 += cell {
				for x0 := 0; x0 < n; x0 += cell {
					vec, lut := make([]int32, 10), make([]int32, 10)
					bd.vecCell(vec, pix, n, x0, x0+cell, y0, y0+cell)
					bd.lutCell(lut, pix, n, x0, x0+cell, y0, y0+cell, &lanes)
					if !slices.Equal(vec, lut) {
						t.Fatalf("%dx%d cell (%d, %d): kernel %v, LUT %v", n, n, x0, y0, vec, lut)
					}
				}
			}
		}
	}
}

// FuzzBuild decodes geometry, edges and pixels from the input and
// requires both mask forms to build the reference counts.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{15, 15, 4, 4, 3, 26, 0, 128, 1, 200, 2, 0, 255, 7, 7, 7, 90})
	f.Add([]byte{63, 0, 63, 1, 0, 255, 0, 1})
	f.Add(binary.LittleEndian.AppendUint64([]byte{7, 2, 2, 3, 2, 1, 1, 254, 1}, 0x00ff10ff10ff10ff))
	// Cell widths of 16, 32 and 48 under at most 10 bins take geCount9.
	f.Add([]byte{63, 63, 15, 15, 9, 26, 0, 51, 0, 77, 0, 102, 0, 128, 0, 153, 0, 179, 0, 204, 0, 230, 0, 255, 7, 0, 128, 200, 31, 3})
	f.Add([]byte{63, 40, 31, 11, 4, 1, 0, 2, 1, 128, 2, 255, 0, 9, 250, 17, 1, 0, 255})
	f.Add([]byte{50, 20, 47, 69, 2, 100, 0, 101, 1, 99, 100, 101, 102, 255, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		w, h := 1+int(data[0]%64), 1+int(data[1]%64)
		cfg := Config{CellW: 1 + int(data[2]%70), CellH: 1 + int(data[3]%70)}
		n := int(data[4])
		data = data[5:]
		// Each edge is a (value, mode) byte pair: exactly on a byte
		// value, just below one, or between byte values.
		for ; n > 0 && len(data) >= 2; n, data = n-1, data[2:] {
			v := byteVal(int(data[0]))
			switch data[1] % 3 {
			case 1:
				v = math.Nextafter(v, 0)
			case 2:
				v = float64(data[0])/256 + float64(data[1])/65536
			}
			cfg.Edges = append(cfg.Edges, v)
		}
		if len(cfg.Edges) == 0 {
			cfg.Edges = []float64{0}
		}
		pix := make([]byte, w*h)
		for i := range pix {
			if len(data) > 0 {
				pix[i] = data[i%len(data)]
			}
		}
		checkBuild(t, pix, w, h, cfg)
	})
}

// TestObserveAllocs: observing a mask builds straight into its slot of
// the index arena and allocates nothing — lutCell's four counter lanes
// and vecCell's counts stay on the stack, and the index's builder made
// its tables and geCount9's thresholds once — while a one-off Build
// allocates the CHI and its counts and nothing else.
func TestObserveAllocs(t *testing.T) {
	m := &Mask{W: 64, H: 64, Bytes: testPixels(rand.New(rand.NewSource(5)), 64, 64)}
	cfg := Config{CellW: 16, CellH: 16, Edges: DefaultEdges(10)}
	ix := NewMemoryIndex(cfg)
	ix.Observe(1, m) // fixes the geometry and allocates the index's first page
	id := int64(1)
	if n := testing.AllocsPerRun(100, func() { id++; ix.Observe(id, m) }); n != 0 {
		t.Errorf("Observe allocates %v per new mask, want 0", n)
	}
	if ix.Len() != int(id) {
		t.Errorf("indexed %d masks, want %d", ix.Len(), id)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Build(m, cfg); err != nil {
			panic(err)
		}
	}); n != 2 {
		t.Errorf("Build allocates %v per mask, want 2", n)
	}
}
