package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Config describes one CHI granularity: the cell size of the spatial
// grid and the pixel-value thresholds (histogram bin edges). A finer
// grid and more edges give tighter CP bounds at the cost of a larger
// index (paper §3.3, Figure 10).
type Config struct {
	// CellW, CellH are the grid cell dimensions in pixels.
	CellW, CellH int
	// Edges are ascending pixel-value thresholds in [0, 1). The first
	// edge must be 0; Normalize enforces this. For each cell and each
	// edge e the index stores the count of pixels with value >= e.
	Edges []float64
}

// DefaultEdges returns n uniform edges 0, 1/n, ..., (n-1)/n.
func DefaultEdges(n int) []float64 {
	e := make([]float64, n)
	for i := range e {
		e[i] = float64(i) / float64(n)
	}
	return e
}

// Normalize returns the validated config: edges sorted, deduplicated,
// clamped to [0, 1), with a leading 0 ensured. A config already in that
// form is returned as is, sharing its Edges — so every CHI built under
// one index config holds the same slice.
func (c Config) Normalize() (Config, error) {
	if c.CellW <= 0 || c.CellH <= 0 {
		return Config{}, fmt.Errorf("chi: cell size %dx%d must be positive", c.CellW, c.CellH)
	}
	if len(c.Edges) == 0 {
		return Config{}, errors.New("chi: config needs at least one histogram edge")
	}
	normalized := c.Edges[0] == 0 && c.Edges[len(c.Edges)-1] < 1
	for i := 1; normalized && i < len(c.Edges); i++ {
		normalized = c.Edges[i-1] < c.Edges[i]
	}
	if normalized {
		return c, nil
	}
	edges := append([]float64(nil), c.Edges...)
	sort.Float64s(edges)
	out := edges[:0]
	for _, e := range edges {
		if e < 0 || e >= 1 {
			continue
		}
		if len(out) == 0 || e != out[len(out)-1] {
			out = append(out, e)
		}
	}
	if len(out) == 0 || out[0] != 0 {
		out = append([]float64{0}, out...)
	}
	c.Edges = out
	return c, nil
}

// Key returns a string identifying the config, for index caching.
func (c Config) Key() string { return fmt.Sprintf("%dx%d/%v", c.CellW, c.CellH, c.Edges) }

// Bounds is an inclusive interval [Lo, Hi] bracketing an exact CP.
type Bounds struct {
	Lo, Hi int64
}

// Width returns the bound slack Hi - Lo; 0 means the bound is exact.
func (b Bounds) Width() int64 { return b.Hi - b.Lo }

// CHI is the Cumulative Histogram Index of one mask: for every grid
// cell and every edge threshold, the number of pixels in the cell with
// value >= the threshold. CPBounds combines these suffix-cumulative
// counts into admissible lower/upper bounds on any CP without touching
// the mask itself.
type CHI struct {
	W, H         int
	CellW, CellH int
	GW, GH       int
	Edges        []float64
	// Cum holds GW*GH*len(Edges) suffix-cumulative counts:
	// Cum[(cy*GW+cx)*len(Edges)+j] = #pixels in cell (cx, cy) with
	// value >= Edges[j].
	Cum []int32
	// geom is the geometry of the MemoryIndex whose slot this is, nil
	// for a CHI built on its own: every slot of an index shares it, so
	// a query plan knows a slot fits by one pointer compare.
	geom *chiGeom
}

// Build constructs the CHI of a mask under the given config. It is the
// one-off form: a MemoryIndex holds one builder for its config and
// reuses it for every mask.
func Build(m *Mask, cfg Config) (*CHI, error) {
	bd := newBuilder(cfg)
	return bd.build(m)
}

// builder builds CHIs under one config. It holds what is the same for
// every mask of an index: the normalized config and the tables that map
// a stored byte to its histogram bin.
type builder struct {
	cfg Config
	// err is the config's Normalize error; build returns it.
	err error
	// bin maps a stored byte to the largest j with Edges[j] <= its
	// decoded value (the RLE path's LUT).
	bin [256]int32
	// compact numbers the distinct bins the 256 bytes reach densely:
	// byte b counts into compact bin compact[b], whose edge index is
	// realIdx[compact[b]]. byteVal is strictly increasing, so bytes of
	// one bin are contiguous and there are at most 256 compact bins
	// whatever the number of edges. realIdx is an array, not a slice,
	// so a one-off Build allocates nothing for its tables.
	compact [256]uint8
	realIdx [256]int32
	bins    int
	// thr broadcasts the first byte of each compact bin 1..9 over 16
	// bytes, geCount9's thresholds; geCell reports that there are at
	// most 10 compact bins and a geCount9 kernel to count them.
	thr    [9 * 16]byte
	geCell bool
}

// newBuilder normalizes cfg and fills the byte tables in one merge of
// the sorted edges against the byte values: bin j takes the bytes from
// the first whose value reaches edge j up to the first that reaches
// edge j+1.
func newBuilder(cfg Config) builder {
	n, err := cfg.Normalize()
	if err != nil {
		return builder{cfg: cfg, err: err}
	}
	bd := builder{cfg: n}
	b := 0
	for j := range n.Edges {
		end := 256
		if j+1 < len(n.Edges) {
			end = firstByteAtLeast(n.Edges[j+1])
		}
		if end <= b {
			continue // no byte value falls in [Edges[j], Edges[j+1])
		}
		if c := bd.bins; c >= 1 && c <= 9 {
			for i := range 16 {
				bd.thr[(c-1)*16+i] = byte(b)
			}
		}
		for ; b < end; b++ {
			bd.bin[b] = int32(j)
			bd.compact[b] = uint8(bd.bins)
		}
		bd.realIdx[bd.bins] = int32(j)
		bd.bins++
	}
	bd.geCell = vecKernels && bd.bins <= 10
	return bd
}

// firstByteAtLeast returns the smallest byte b with byteVal(b) >= e, or
// 256. byteVal(b) lies within float32 rounding of b/255, so the guess
// ceil(e*255) is at most a step off.
func firstByteAtLeast(e float64) int {
	b := min(max(int(math.Ceil(e*255)), 0), 256)
	for b > 0 && byteVal(b-1) >= e {
		b--
	}
	for b < 256 && byteVal(b) < e {
		b++
	}
	return b
}

// build constructs the CHI of a mask under the builder's config.
func (bd *builder) build(m *Mask) (*CHI, error) {
	if bd.err != nil {
		return nil, bd.err
	}
	if m == nil || m.W <= 0 || m.H <= 0 {
		return nil, errors.New("chi: cannot index an empty mask")
	}
	c := bd.header(m.W, m.H)
	c.Cum = make([]int32, c.GW*c.GH*len(c.Edges))
	bd.fill(&c, m)
	return &c, nil
}

// header returns the CHI of a w×h mask under the builder's config,
// without its counts.
func (bd *builder) header(w, h int) CHI {
	cfg := bd.cfg
	return CHI{W: w, H: h, CellW: cfg.CellW, CellH: cfg.CellH, GW: (w-1)/cfg.CellW + 1, GH: (h-1)/cfg.CellH + 1, Edges: cfg.Edges}
}

// fill counts m into c, whose header is m's under the builder's config
// and whose Cum is zeroed: a fresh CHI, or a claimed index slot.
func (bd *builder) fill(c *CHI, m *Mask) {
	cfg := bd.cfg
	k, gw, gh := len(cfg.Edges), c.GW, c.GH
	if m.Bytes != nil {
		bd.accumBytes(c.Cum, m.Bytes, m.W, m.H, gw, gh)
		return
	}
	// An RLE mask: whole repeat runs fold through the value→bin LUT in
	// one update per cell they touch, with no pixel materialization;
	// then each cell's per-bin counts are suffix-summed.
	accumRLEHistogram(c.Cum, m.RLE, m.W, m.H, cfg.CellW, cfg.CellH, gw, k, &bd.bin)
	for cell := 0; cell < gw*gh; cell++ {
		suffixSum(c.Cum[cell*k:][:k])
	}
}

// suffixSum turns one cell's per-bin counts into counts at or above
// each edge.
func suffixSum(col []int32) {
	for j := len(col) - 2; j >= 0; j-- {
		col[j] += col[j+1]
	}
}

// accumBytes is the byte-domain build: the counts at or above each
// edge of every cell into cum. Pixels are quantized to 256 levels, so
// the byte tables replace a per-pixel binary search, and byteVal
// reproduces the store's decoding exactly, so each pixel lands in the
// bin binIndex gives its decoded value. Under a builder with geCell, a
// cell whose width is a multiple of 16 goes through vecCell; every
// other cell through lutCell.
func (bd *builder) accumBytes(cum []int32, pix []byte, w, h, gw, gh int) {
	var lanes [4][256]int32
	cw, ch, k := bd.cfg.CellW, bd.cfg.CellH, len(bd.cfg.Edges)
	for cy := 0; cy < gh; cy++ {
		y0, y1 := cy*ch, min((cy+1)*ch, h)
		for cx := 0; cx < gw; cx++ {
			x0, x1 := cx*cw, min((cx+1)*cw, w)
			dst := cum[(cy*gw+cx)*k:][:k]
			if g := (x1 - x0) / 16; bd.geCell && g*16 == x1-x0 && g <= 255 {
				bd.vecCell(dst, pix, w, x0, x1, y0, y1)
			} else {
				bd.lutCell(dst, pix, w, x0, x1, y0, y1, &lanes)
			}
		}
	}
}

// lutCell counts the cell [x0, x1)×[y0, y1) of the w-wide pix into dst,
// a zeroed column of the cell's counts, through the byte→compact-bin
// table. It counts the cell's row slices into four lanes of fixed-size
// counters — eight pixels per load, the pixel at offset j into lane
// j%4 — and flushes the lanes' sums into dst, leaving them zeroed for
// the next cell. Fixed arrays indexed by a uint8 carry no bounds
// checks, and the lanes keep runs of equal pixels from chaining every
// increment through one counter's store and reload.
func (bd *builder) lutCell(dst []int32, pix []byte, w, x0, x1, y0, y1 int, lanes *[4][256]int32) {
	for y := y0; y < y1; y++ {
		row := pix[y*w+x0 : y*w+x1]
		i := 0
		for ; i+8 <= len(row); i += 8 {
			q := binary.LittleEndian.Uint64(row[i:])
			lanes[0][bd.compact[uint8(q)]]++
			lanes[1][bd.compact[uint8(q>>8)]]++
			lanes[2][bd.compact[uint8(q>>16)]]++
			lanes[3][bd.compact[uint8(q>>24)]]++
			lanes[0][bd.compact[uint8(q>>32)]]++
			lanes[1][bd.compact[uint8(q>>40)]]++
			lanes[2][bd.compact[uint8(q>>48)]]++
			lanes[3][bd.compact[uint8(q>>56)]]++
		}
		for _, b := range row[i:] {
			lanes[0][bd.compact[b]]++
		}
	}
	for c, j := range bd.realIdx[:bd.bins] {
		dst[j] = lanes[0][c] + lanes[1][c] + lanes[2][c] + lanes[3][c]
		lanes[0][c], lanes[1][c], lanes[2][c], lanes[3][c] = 0, 0, 0, 0
	}
	suffixSum(dst)
}

// vecCell is lutCell for a cell whose width is a multiple of 16 (at
// most 255 groups of 16), under at most 10 compact bins: geCount9
// counts the bytes at or above the first byte of each compact bin past
// the first, sixteen pixels at a time, so the cell's counts come out
// suffix-summed. Its byte accumulators wrap at 255, so it takes the
// cell in blocks of at most 255 row groups. Edge j's count is that of
// the first compact bin whose edge is at or above j; the first edge's
// is the cell's area.
func (bd *builder) vecCell(dst []int32, pix []byte, w, x0, x1, y0, y1 int) {
	groups := (x1 - x0) / 16
	ge := [10]int32{int32((x1 - x0) * (y1 - y0))}
	for y := y0; y < y1; {
		rows := min(255/groups, y1-y)
		geCount9(&bd.thr, &pix[y*w+x0], w, groups, rows, (*[9]int32)(ge[1:]))
		y += rows
	}
	c := bd.bins
	for j := len(dst) - 1; j >= 0; j-- {
		if bd.realIdx[c-1] == int32(j) {
			c--
		}
		dst[j] = ge[c]
	}
}

// validate returns why c is not a CHI that cfg (normalized) could have
// built, or nil: its cell size and edges are cfg's, its grid covers its
// W×H, Cum holds len(Edges) counts per cell, and each cell's counts are
// a suffix-cumulative histogram of exactly its pixels — non-increasing,
// non-negative, the first equal to the cell's area.
func (c *CHI) validate(cfg Config) error {
	if c == nil {
		return errors.New("missing entry")
	}
	if c.CellW != cfg.CellW || c.CellH != cfg.CellH || !slices.Equal(c.Edges, cfg.Edges) {
		return fmt.Errorf("built under %s, not %s", c.Config().Key(), cfg.Key())
	}
	if c.W <= 0 || c.H <= 0 || c.GW != (c.W-1)/c.CellW+1 || c.GH != (c.H-1)/c.CellH+1 {
		return fmt.Errorf("%dx%d grid for a %dx%d mask", c.GW, c.GH, c.W, c.H)
	}
	k := len(c.Edges)
	if cells := len(c.Cum) / k; len(c.Cum)%k != 0 || c.GW > cells || c.GH > cells || c.GW*c.GH != cells {
		return fmt.Errorf("%d counts for %dx%d cells of %d edges", len(c.Cum), c.GW, c.GH, k)
	}
	for cy := 0; cy < c.GH; cy++ {
		ch := min(c.CellH, c.H-cy*c.CellH)
		for cx := 0; cx < c.GW; cx++ {
			cw := min(c.CellW, c.W-cx*c.CellW)
			col := c.Cum[(cy*c.GW+cx)*k:][:k]
			if cw > math.MaxInt32 || ch > math.MaxInt32 || int64(col[0]) != int64(cw)*int64(ch) {
				return fmt.Errorf("cell (%d, %d) counts %d pixels in a %dx%d cell", cx, cy, col[0], cw, ch)
			}
			for j := 1; j < k; j++ {
				if col[j] < 0 || col[j] > col[j-1] {
					return fmt.Errorf("cell (%d, %d) counts are not a cumulative histogram", cx, cy)
				}
			}
		}
	}
	return nil
}

// binIndex returns the largest j with edges[j] <= v (v >= 0).
func binIndex(edges []float64, v float64) int {
	i := sort.SearchFloat64s(edges, v)
	if i < len(edges) && edges[i] == v {
		return i
	}
	return i - 1
}

// geIdx returns the smallest j with edges[j] >= v, or len(edges).
func geIdx(edges []float64, v float64) int { return sort.SearchFloat64s(edges, v) }

// Config returns the configuration the index was built with.
func (c *CHI) Config() Config {
	return Config{CellW: c.CellW, CellH: c.CellH, Edges: c.Edges}
}

// CPBounds returns admissible bounds on ExactCP(mask, roi, vr) using
// only the index: Lo <= CP <= Hi always holds. Bounds are exact when
// the ROI is cell-aligned and both range endpoints are edges (or the
// range is top-closed at 1.0). It is the one-off form: executors derive
// the chiPlan once per query and reuse it for every mask.
func (c *CHI) CPBounds(roi Rect, vr ValueRange) Bounds {
	g := newChiPlan(c, vr)
	return g.sumRegion(c.Cum, roi)
}

// chiPlan is the part of CPBounds that is the same for every CHI of an
// index and every mask of a query: the edge indexes bracketing the two
// range endpoints and the cell cover of one region (the first the plan
// was asked about; fixed-rect terms never ask about another).
type chiPlan struct {
	w, h, cellW, cellH, gw int
	edges                  []float64
	geom                   *chiGeom
	// empty: no pixel value can satisfy the range, every bound is 0.
	empty bool
	// count(v >= lo) is bracketed by Cum[loGE] <= . <= Cum[loLE], and
	// count(v >= hi) likewise; a top-closed range subtracts exactly 0
	// (no value exceeds 1.0). An index of len(edges) stands for 0.
	loLE, loGE, hiLE, hiGE int
	closedTop              bool
	roi                    Rect
	cells                  []coverCell
}

// coverCell is one grid cell a region touches.
type coverCell struct {
	r    Rect  // the cell's overlap with the region, in pixels
	base int   // offset of the cell's counts in Cum
	ovl  int64 // area of r
	out  int64 // area of the cell outside the region
}

// coverBuf sizes the stack buffers of per-mask covers (larger ones spill).
const coverBuf = 16

func newChiPlan(c *CHI, vr ValueRange) chiPlan {
	g := chiPlan{w: c.W, h: c.H, cellW: c.CellW, cellH: c.CellH, gw: c.GW, edges: c.Edges, geom: c.geom}
	lo := max(vr.Lo, 0)
	g.closedTop = vr.Hi >= 1
	if g.empty = vr.IsEmpty() || (!g.closedTop && vr.Hi <= lo); g.empty {
		return g
	}
	g.loLE, g.loGE = binIndex(c.Edges, lo), geIdx(c.Edges, lo)
	if !g.closedTop {
		g.hiLE, g.hiGE = binIndex(c.Edges, vr.Hi), geIdx(c.Edges, vr.Hi)
	}
	return g
}

// fits reports whether the plan was derived for c's geometry and edges.
// A plan derived from an index slot fits every slot of that index by
// the shared geometry pointer; only a CHI from elsewhere (a one-off
// Build) is compared field by field.
func (g *chiPlan) fits(c *CHI) bool {
	if c.geom != nil && c.geom == g.geom {
		return true
	}
	return c.W == g.w && c.H == g.h && c.CellW == g.cellW && c.CellH == g.cellH && c.GW == g.gw &&
		(sameSlice(c.Edges, g.edges) || slices.Equal(c.Edges, g.edges))
}

// sameSlice reports whether a and b are one and the same non-empty
// slice, as the edges of CHIs built under one config are.
func sameSlice(a, b []float64) bool { return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0] }

// cellBounds brackets the qualifying pixels of one covered cell inside
// the region, from the cell's counts col. A boundary cell is clamped by
// its overlap: at most ovl qualifying pixels lie inside, and at most
// out of the cell's qualifying pixels outside (an interior cell has
// out = 0 and no count above ovl, so the clamps change nothing).
func (g *chiPlan) cellBounds(col []int32, ovl, out int64) (lo, hi int64) {
	hi = int64(col[g.loLE])
	if g.loGE < len(col) {
		lo = int64(col[g.loGE])
	}
	if !g.closedTop {
		lo -= int64(col[g.hiLE])
		if g.hiGE < len(col) {
			hi -= int64(col[g.hiGE])
		}
	}
	return max(lo-out, 0), min(hi, ovl)
}

// sum adds the bounds of a memoized cover.
func (g *chiPlan) sum(cum []int32, cells []coverCell) Bounds {
	var total Bounds
	for i := range cells {
		c := &cells[i]
		lo, hi := g.cellBounds(cum[c.base:c.base+len(g.edges)], c.ovl, c.out)
		total.Lo += lo
		total.Hi += hi
	}
	return total
}

// cover appends the cells roi touches, in row-major grid order.
func (g *chiPlan) cover(dst []coverCell, roi Rect) []coverCell {
	roi = roi.Intersect(Rect{0, 0, g.w, g.h})
	if roi.Empty() || g.empty {
		return dst
	}
	k := len(g.edges)
	for cy := roi.Y0 / g.cellH; cy*g.cellH < roi.Y1; cy++ {
		y0, y1 := max(cy*g.cellH, roi.Y0), min((cy+1)*g.cellH, roi.Y1)
		ch := min((cy+1)*g.cellH, g.h) - cy*g.cellH
		for cx := roi.X0 / g.cellW; cx*g.cellW < roi.X1; cx++ {
			x0, x1 := max(cx*g.cellW, roi.X0), min((cx+1)*g.cellW, roi.X1)
			cw := min((cx+1)*g.cellW, g.w) - cx*g.cellW
			ovl := int64((x1 - x0) * (y1 - y0))
			dst = append(dst, coverCell{Rect{x0, y0, x1, y1}, (cy*g.gw + cx) * k, ovl, int64(cw*ch) - ovl})
		}
	}
	return dst
}

// sumRegion is sum(cover(roi)) without materializing the cover, for a
// region asked about once (an object box, a one-off call): its bounds
// need no cell rects, and the walk stays in registers.
func (g *chiPlan) sumRegion(cum []int32, roi Rect) Bounds {
	var total Bounds
	roi = roi.Intersect(Rect{0, 0, g.w, g.h})
	if roi.Empty() || g.empty {
		return total
	}
	k := len(g.edges)
	for cy := roi.Y0 / g.cellH; cy*g.cellH < roi.Y1; cy++ {
		rh := int64(min((cy+1)*g.cellH, roi.Y1) - max(cy*g.cellH, roi.Y0))
		ch := int64(min((cy+1)*g.cellH, g.h) - cy*g.cellH)
		for cx := roi.X0 / g.cellW; cx*g.cellW < roi.X1; cx++ {
			ovl := rh * int64(min((cx+1)*g.cellW, roi.X1)-max(cx*g.cellW, roi.X0))
			area := ch * int64(min((cx+1)*g.cellW, g.w)-cx*g.cellW)
			base := (cy*g.gw + cx) * k
			lo, hi := g.cellBounds(cum[base:base+k], ovl, area-ovl)
			total.Lo += lo
			total.Hi += hi
		}
	}
	return total
}
