// Package core implements the MaskSearch data model and query engine:
// masks, the Cumulative Histogram Index (CHI), and the
// filter–verification executors for Filter, Top-K and aggregation
// queries (paper §3).
//
// The root masksearch package re-exports the user-facing types (Mask,
// Rect, ValueRange) as aliases; everything else in this package is an
// internal engine surface that cmd/ tools reach through the facade.
package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Rect is a half-open pixel rectangle [X0, X1) x [Y0, Y1).
type Rect struct {
	X0, Y0, X1, Y1 int
}

// W returns the rectangle width in pixels.
func (r Rect) W() int { return r.X1 - r.X0 }

// H returns the rectangle height in pixels.
func (r Rect) H() int { return r.Y1 - r.Y0 }

// Area returns the number of pixels covered, 0 for degenerate rects.
func (r Rect) Area() int {
	if r.Empty() {
		return 0
	}
	return r.W() * r.H()
}

// Empty reports whether the rectangle covers no pixels.
func (r Rect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// ContainsPoint reports whether pixel (x, y) lies inside the rect.
func (r Rect) ContainsPoint(x, y int) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// Intersect returns the intersection of two rectangles; the result may
// be Empty.
func (r Rect) Intersect(o Rect) Rect {
	out := Rect{max(r.X0, o.X0), max(r.Y0, o.Y0), min(r.X1, o.X1), min(r.Y1, o.Y1)}
	if out.Empty() {
		return Rect{}
	}
	return out
}

func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", r.X0, r.X1, r.Y0, r.Y1)
}

// ValueRange selects mask pixel values in [Lo, Hi). As a special case
// Hi >= 1 closes the top of the interval so that fully-saturated
// pixels (v == 1.0) are included: [Lo, 1.0].
type ValueRange struct {
	Lo, Hi float64
}

// Contains reports whether value v falls in the range.
func (vr ValueRange) Contains(v float64) bool {
	if v < vr.Lo {
		return false
	}
	if vr.Hi >= 1 {
		return v <= 1
	}
	return v < vr.Hi
}

// IsEmpty reports whether no value can satisfy the range.
func (vr ValueRange) IsEmpty() bool {
	if vr.Hi >= 1 {
		return vr.Lo > 1
	}
	return vr.Lo >= vr.Hi
}

// byteVal is the exact value a stored uint8 pixel decodes to: the
// store divides in float32 and the kernels compare in float64, so the
// same widening sequence is reproduced here.
func byteVal(b int) float64 { return float64(float32(b) / 255) }

// ByteBounds quantizes the range to the uint8 pixel domain once per
// query: a stored byte b satisfies the range iff lo <= b < hi (hi
// ranges up to 256). Because byteVal is strictly increasing, the byte
// interval selects exactly the bytes whose decoded value satisfies
// Contains, so byte-domain kernels agree bit-for-bit with the float
// path on quantized masks.
func (vr ValueRange) ByteBounds() (lo, hi int) {
	lo = sort.Search(256, func(b int) bool { return byteVal(b) >= vr.Lo })
	if vr.Hi >= 1 {
		// Top-closed: every byte decodes to a value <= 1.0.
		return lo, 256
	}
	hi = sort.Search(256, func(b int) bool { return byteVal(b) >= vr.Hi })
	return lo, hi
}

func (vr ValueRange) String() string {
	if vr.Hi >= 1 {
		return fmt.Sprintf("[%g, 1.0]", vr.Lo)
	}
	return fmt.Sprintf("[%g, %g)", vr.Lo, vr.Hi)
}

// Mask is a dense 2-D array of pixel values in [0, 1], row-major.
// It has three interchangeable backings:
//
//   - Pix, float32 values, the general representation;
//   - Bytes, raw uint8 pixels as stored on disk (value = b/255); and
//   - RLE, the run-length-encoded byte stream of the compressed
//     layout (see EncodeRLE), still in the uint8 pixel domain.
//
// When Bytes is non-nil it is authoritative and the kernels run in
// the byte domain (SWAR counting over quantized thresholds, no float
// conversion); Pix may then be nil. When only RLE is non-nil the hot
// kernels (ExactCP, CHI Build) iterate the runs directly without
// materializing pixels; everything else decodes first via Decoded.
// Masks loaded from a store are byte- or RLE-backed depending on the
// store's codec; masks built in memory via NewMask are float-backed.
// Consumers should read pixels through At, ExactCP or ToFloat rather
// than ranging over Pix directly, which is nil on byte-backed masks.
//
// RowDir, when non-nil, is the row directory of RLE (see IndexRLE):
// RowDir[y] is the stream offset of row y. It is an optional
// accelerator the store attaches to the masks it loads; a hand-built
// RLE mask leaves it nil and the kernels walk from row 0.
type Mask struct {
	W, H   int
	Pix    []float32
	Bytes  []uint8
	RLE    []byte
	RowDir []uint32
}

// NewMask allocates a zero float-backed mask of the given dimensions.
func NewMask(w, h int) *Mask {
	return &Mask{W: w, H: h, Pix: make([]float32, w*h)}
}

// NewByteMask allocates a zero byte-backed mask of the given
// dimensions.
func NewByteMask(w, h int) *Mask {
	return &Mask{W: w, H: h, Bytes: make([]uint8, w*h)}
}

// At returns the value at pixel (x, y). The caller must stay in bounds.
// On an RLE-only mask this walks the row's runs — O(runs) per call —
// so loops over many pixels should go through Decoded instead.
func (m *Mask) At(x, y int) float32 {
	if m.Bytes != nil {
		return float32(m.Bytes[y*m.W+x]) / 255
	}
	if m.RLE != nil {
		return float32(m.rleAt(x, y)) / 255
	}
	return m.Pix[y*m.W+x]
}

// rleRowStart returns the stream offset of row y: from the row
// directory when the mask carries one, else by walking the control
// bytes of every row above it.
func (m *Mask) rleRowStart(y int) int {
	if m.RowDir != nil {
		return int(m.RowDir[y])
	}
	rle := m.RLE
	i := 0
	for row := 0; row < y; row++ {
		for rx := 0; rx < m.W; {
			c := int(rle[i])
			if c < 128 {
				i += c + 2
				rx += c + 1
			} else {
				i += 2
				rx += c - 126
			}
		}
	}
	return i
}

// rleAt finds pixel (x, y) in the compressed stream by walking the
// runs of its row.
func (m *Mask) rleAt(x, y int) uint8 {
	rle := m.RLE
	i := m.rleRowStart(y)
	for rx := 0; ; {
		c := int(rle[i])
		i++
		if c < 128 {
			if x < rx+c+1 {
				return rle[i+(x-rx)]
			}
			i += c + 1
			rx += c + 1
		} else {
			if x < rx+c-126 {
				return rle[i]
			}
			i++
			rx += c - 126
		}
	}
}

// Set stores v at pixel (x, y). The caller must stay in bounds. On a
// byte-backed mask the value is clamped to [0, 1] and quantized to
// the storage domain, so a subsequent At may return the nearest
// representable value rather than v itself.
func (m *Mask) Set(x, y int, v float32) {
	if m.Bytes != nil {
		v = min(max(v, 0), 1)
		m.Bytes[y*m.W+x] = uint8(math.Round(float64(v) * 255))
		return
	}
	if m.RLE != nil {
		// The compressed stream is immutable; writable copies come from
		// Decoded.
		panic("core: Set on an RLE-backed mask; call Decoded first")
	}
	m.Pix[y*m.W+x] = v
}

// ToFloat returns a float-backed view of the mask: the mask itself
// when already float-backed, otherwise a converted copy.
func (m *Mask) ToFloat() *Mask {
	if m.Pix != nil {
		return m
	}
	b := m.Decoded().Bytes
	out := NewMask(m.W, m.H)
	for i, v := range b {
		out.Pix[i] = float32(v) / 255
	}
	return out
}

// Decoded returns a mask with materialized pixels: the mask itself
// when Bytes or Pix is already present, otherwise a byte-backed copy
// decompressed from the RLE stream. It is the decode-then-scan
// fallback for code without a compressed path (rendering, histograms,
// region extraction). The stream must be valid (the store validates
// every mask it serves); a corrupt stream panics.
func (m *Mask) Decoded() *Mask {
	if m.Bytes != nil || m.RLE == nil {
		return m
	}
	out := NewByteMask(m.W, m.H)
	if err := DecodeRLE(m.RLE, m.W, m.H, out.Bytes); err != nil {
		panic(fmt.Sprintf("core: decoding a validated RLE mask: %v", err))
	}
	return out
}

// Bounds returns the full-mask rectangle.
func (m *Mask) Bounds() Rect { return Rect{0, 0, m.W, m.H} }

// ExactCP computes CP(mask, roi, vr): the count of pixels inside roi
// whose value falls in vr. It is the one-off form of the verification
// kernel — executors quantize the range once per query (termPlan) and
// count through the same rangeCounter. Byte- and RLE-backed masks never
// touch a float.
func ExactCP(m *Mask, roi Rect, vr ValueRange) int64 {
	roi = roi.Intersect(m.Bounds())
	if roi.Empty() || vr.IsEmpty() {
		return 0
	}
	rc := newRangeCounter(vr)
	return rc.countMask(m, roi)
}

// exactCPFloat counts on a float-backed mask. Comparisons happen in
// float64 so the kernel agrees exactly with ValueRange.Contains and
// with CHI bin assignment.
func exactCPFloat(m *Mask, roi Rect, vr ValueRange) int64 {
	var n int64
	closedTop := vr.Hi >= 1
	for y := roi.Y0; y < roi.Y1; y++ {
		row := m.Pix[y*m.W+roi.X0 : y*m.W+roi.X1]
		for _, p := range row {
			v := float64(p)
			if v < vr.Lo {
				continue
			}
			if closedTop {
				if v <= 1 {
					n++
				}
			} else if v < vr.Hi {
				n++
			}
		}
	}
	return n
}

// SWAR constants: the low bit and the high (sign) bit of every byte
// lane in a 64-bit word.
const (
	swarL = 0x0101010101010101
	swarH = 0x8080808080808080
)

// geCounter counts bytes >= a fixed threshold n, eight lanes at a
// time. The per-lane comparison adds 128-n (or 256-n when n > 128) to
// the low 7 bits of each lane — the sum's MSB then flags "low bits >=
// threshold" with no carry ever crossing a lane — and combines it
// with the lane's own MSB: OR for n <= 128 (a set MSB alone implies
// >= n), AND for n > 128 (the MSB is necessary, and the low bits must
// clear n-128); or is all ones in the first case, zero in the second.
type geCounter struct {
	add, or uint64
}

func geCounterFor(n int) geCounter {
	if n <= 128 {
		return geCounter{add: uint64(128-n) * swarL, or: ^uint64(0)}
	}
	return geCounter{add: uint64(256-n) * swarL}
}

// geOr and geAnd are the two combinations for loops that know theirs.
func geOr(x, add uint64) uint64  { return (((x &^ swarH) + add) | x) & swarH }
func geAnd(x, add uint64) uint64 { return ((x &^ swarH) + add) & x & swarH }

// mask flags the qualifying bytes of x in their lane MSBs, picking the
// combination without a branch.
func (g geCounter) mask(x uint64) uint64 {
	t := (x &^ swarH) + g.add
	return (t&x | (t|x)&g.or) & swarH
}

// rangeCounter is a value range quantized to the uint8 pixel domain
// (ValueRange.ByteBounds) with its SWAR counters, built once per query.
// Raw rows and RLE literal segments are counted with the exact same
// arithmetic.
type rangeCounter struct {
	vr       ValueRange
	bLo, bHi int // stored byte b qualifies iff bLo <= b < bHi (bHi up to 256)
	cLo, cHi geCounter
}

func newRangeCounter(vr ValueRange) rangeCounter {
	bLo, bHi := vr.ByteBounds()
	return rangeCounter{vr: vr, bLo: bLo, bHi: bHi, cLo: geCounterFor(bLo), cHi: geCounterFor(bHi)}
}

// matches reports whether one byte falls in the range.
func (rc *rangeCounter) matches(b byte) bool { return int(b) >= rc.bLo && int(b) < rc.bHi }

// countMask is the verification kernel: the qualifying pixels of m
// inside r, which must lie within the mask.
func (rc *rangeCounter) countMask(m *Mask, r Rect) int64 {
	switch {
	case m.Bytes == nil && m.RLE == nil:
		return exactCPFloat(m, r, rc.vr)
	case rc.bLo >= rc.bHi:
		return 0
	case rc.bLo == 0 && rc.bHi == 256:
		return int64(r.Area())
	case m.Bytes != nil:
		return rc.countRect(m.Bytes, m.W, r)
	}
	return exactCPRLE(m, r, rc)
}

// countRect counts the qualifying bytes of rect r in row-major pixels
// of the given stride: each 8-pixel word costs a handful of bit
// operations and one popcount — no float conversion, no table, no
// data-dependent branch. The loop is chosen once per call (band, or
// open-topped with OR or AND combination) and consumes each row as a
// shrinking slice, so a word pays no mode test and no bounds check.
func (rc *rangeCounter) countRect(pix []uint8, stride int, r Rect) int64 {
	rw := r.W()
	n := 0
	if rw < 8 {
		// Rows too narrow for a word load: plain comparisons.
		for y := r.Y0; y < r.Y1; y++ {
			for _, b := range pix[y*stride+r.X0 : y*stride+r.X1] {
				if rc.matches(b) {
					n++
				}
			}
		}
		return int64(n)
	}
	// tailMask keeps the high rem lanes of the word ending at the row
	// boundary, so the remainder re-reads (and masks off) bytes the
	// aligned loop already counted instead of falling back to a
	// per-byte tail.
	rem := rw % 8
	tailMask := ^uint64(0) << (8 * (8 - rem))
	add := rc.cLo.add
	switch {
	case rc.bHi < 256:
		for y := r.Y0; y < r.Y1; y++ {
			row := pix[y*stride+r.X0 : y*stride+r.X1]
			tail := row[rw-8:]
			for len(row) >= 8 {
				x := binary.LittleEndian.Uint64(row)
				n += bits.OnesCount64(rc.cLo.mask(x) &^ rc.cHi.mask(x))
				row = row[8:]
			}
			if rem > 0 {
				x := binary.LittleEndian.Uint64(tail)
				n += bits.OnesCount64(rc.cLo.mask(x) &^ rc.cHi.mask(x) & tailMask)
			}
		}
	case rc.cLo.or != 0:
		for y := r.Y0; y < r.Y1; y++ {
			row := pix[y*stride+r.X0 : y*stride+r.X1]
			tail := row[rw-8:]
			for len(row) >= 8 {
				n += bits.OnesCount64(geOr(binary.LittleEndian.Uint64(row), add))
				row = row[8:]
			}
			if rem > 0 {
				n += bits.OnesCount64(geOr(binary.LittleEndian.Uint64(tail), add) & tailMask)
			}
		}
	default:
		for y := r.Y0; y < r.Y1; y++ {
			row := pix[y*stride+r.X0 : y*stride+r.X1]
			tail := row[rw-8:]
			for len(row) >= 8 {
				n += bits.OnesCount64(geAnd(binary.LittleEndian.Uint64(row), add))
				row = row[8:]
			}
			if rem > 0 {
				n += bits.OnesCount64(geAnd(binary.LittleEndian.Uint64(tail), add) & tailMask)
			}
		}
	}
	return int64(n)
}
