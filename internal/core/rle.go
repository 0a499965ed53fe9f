package core

import (
	"fmt"
	"math"
)

// Run-length encoding over the uint8 pixel domain, the compressed mask
// layout's codec. The stream is a sequence of rows, each a sequence of
// runs introduced by one control byte c:
//
//	c < 128  — literal run: the next c+1 bytes (1..128) are raw pixels
//	c >= 128 — repeat run: the next byte repeats c-126 times (2..129)
//
// Runs never cross a row boundary, so every row decodes independently
// and the row structure is recoverable from control bytes alone.
// Keeping literal pixels contiguous in the stream is what lets the
// kernels compute on the compressed form: ExactCP runs the same SWAR
// word loop over a literal segment that it runs over uncompressed
// rows, and a repeat run collapses to one predicate test times the
// run's overlap with the query rect. Saliency-style masks — large
// smooth regions, saturated plateaus, low-frequency background — make
// repeat runs common enough that the stream is well below w*h bytes.
const (
	rleMaxLiteral = 128 // literal runs hold 1..128 bytes
	rleMinRepeat  = 2   // repeat runs cover 2..129 pixels
	rleMaxRepeat  = 129
)

// EncodeRLE compresses w*h row-major pixels into the RLE stream
// format. The encoding is canonical: repeated pixels become a repeat
// run once the run is long enough to win (3+, or 2 at a literal
// boundary where it ties), everything else accumulates into literals.
func EncodeRLE(pix []byte, w, h int) []byte {
	out := make([]byte, 0, len(pix)/2)
	for y := 0; y < h; y++ {
		row := pix[y*w : (y+1)*w]
		litStart := 0 // start of the pending literal
		x := 0
		for x < w {
			// Measure the repeat run at x.
			runEnd := x + 1
			for runEnd < w && row[runEnd] == row[x] {
				runEnd++
			}
			runLen := runEnd - x
			// A repeat run of 3+ always beats carrying the bytes in a
			// literal; a run of exactly 2 only ties, so it stays literal
			// (fewer control-byte boundaries for the kernels to walk).
			if runLen >= 3 {
				out = appendLiteral(out, row[litStart:x])
				for runLen > 0 {
					n := min(runLen, rleMaxRepeat)
					if rem := runLen - n; rem > 0 && rem < rleMinRepeat {
						// Don't strand a 1-pixel remainder a repeat run
						// cannot express: shorten this run instead.
						n -= rleMinRepeat - rem
					}
					out = append(out, byte(126+n), row[x])
					x += n
					runLen -= n
				}
				litStart = x
				continue
			}
			x = runEnd
		}
		out = appendLiteral(out, row[litStart:])
	}
	return out
}

// appendLiteral emits lit as one or more literal runs.
func appendLiteral(out, lit []byte) []byte {
	for len(lit) > 0 {
		n := min(len(lit), rleMaxLiteral)
		out = append(out, byte(n-1))
		out = append(out, lit[:n]...)
		lit = lit[n:]
	}
	return out
}

// RLEBound is an upper bound on len(EncodeRLE(pix, w, h)) for any
// pixels: a row's literals cost one control byte per 128 pixels plus
// one per fragment, and every repeat run that fragments them saves at
// least one byte. Streams from other writers may be longer.
func RLEBound(w, h int) int { return h * (w + w/rleMaxLiteral + 2) }

// DecodeRLE decompresses an RLE stream into dst (length w*h). It
// validates strictly and never panics on hostile input: every row's
// runs must sum to exactly w, exactly h rows must be present, and the
// stream must end exactly at the last run — truncated streams, runs
// overflowing a row, and trailing garbage are all errors.
func DecodeRLE(rle []byte, w, h int, dst []byte) error {
	if w <= 0 || h <= 0 {
		return fmt.Errorf("core: rle decode: dimensions %dx%d must be positive", w, h)
	}
	if len(dst) != w*h {
		return fmt.Errorf("core: rle decode: dst holds %d bytes, want %d (%dx%d)", len(dst), w*h, w, h)
	}
	i := 0
	for y := 0; y < h; y++ {
		x := 0
		for x < w {
			if i >= len(rle) {
				return fmt.Errorf("core: rle decode: truncated stream in row %d at x=%d", y, x)
			}
			c := int(rle[i])
			i++
			if c < 128 {
				n := c + 1
				if x+n > w {
					return fmt.Errorf("core: rle decode: literal run of %d overflows row %d at x=%d (width %d)", n, y, x, w)
				}
				if i+n > len(rle) {
					return fmt.Errorf("core: rle decode: truncated literal in row %d", y)
				}
				copy(dst[y*w+x:], rle[i:i+n])
				i += n
				x += n
			} else {
				n := c - 126
				if x+n > w {
					return fmt.Errorf("core: rle decode: repeat run of %d overflows row %d at x=%d (width %d)", n, y, x, w)
				}
				if i >= len(rle) {
					return fmt.Errorf("core: rle decode: truncated repeat in row %d", y)
				}
				v := rle[i]
				i++
				seg := dst[y*w+x : y*w+x+n]
				for j := range seg {
					seg[j] = v
				}
				x += n
			}
		}
	}
	if i != len(rle) {
		return fmt.Errorf("core: rle decode: %d trailing bytes after the last row", len(rle)-i)
	}
	return nil
}

// ValidateRLE checks the structural invariants of an RLE stream for
// the given dimensions without materializing any pixels — it walks
// control bytes only, so it costs O(runs), not O(w*h). A stream that
// passes may be iterated unchecked by the kernels; the store runs the
// walk once per mask per open (as IndexRLE), not once per load.
func ValidateRLE(rle []byte, w, h int) error { return IndexRLE(rle, w, h, nil) }

// IndexRLE is ValidateRLE fused with the row-directory build: the same
// single walk that accepts or rejects the stream stores the stream
// offset of row y in dir[y]. dir holds h entries, or is nil to validate
// only. When an error is returned dir's contents are unspecified.
func IndexRLE(rle []byte, w, h int, dir []uint32) error {
	if w <= 0 || h <= 0 {
		return fmt.Errorf("core: rle: dimensions %dx%d must be positive", w, h)
	}
	if dir != nil && (len(dir) != h || len(rle) > math.MaxUint32) {
		return fmt.Errorf("core: rle: row directory of %d entries cannot index a %d-byte stream of %d rows", len(dir), len(rle), h)
	}
	i := 0
	for y := 0; y < h; y++ {
		if dir != nil {
			dir[y] = uint32(i)
		}
		x := 0
		for x < w {
			if i >= len(rle) {
				return fmt.Errorf("core: rle: truncated stream in row %d at x=%d", y, x)
			}
			c := int(rle[i])
			i++
			var n, skip int
			if c < 128 {
				n, skip = c+1, c+1
			} else {
				n, skip = c-126, 1
			}
			if x+n > w {
				return fmt.Errorf("core: rle: run of %d overflows row %d at x=%d (width %d)", n, y, x, w)
			}
			if i+skip > len(rle) {
				return fmt.Errorf("core: rle: truncated run in row %d", y)
			}
			i += skip
			x += n
		}
	}
	if i != len(rle) {
		return fmt.Errorf("core: rle: %d trailing bytes after the last row", len(rle)-i)
	}
	return nil
}

// exactCPRLE counts qualifying pixels directly on the compressed
// stream, with no materialization: repeat runs contribute overlap ×
// predicate(value) in O(1), literal runs go through the SWAR range
// counter over their in-ROI slice. With a row directory the kernel
// seeks: it starts each ROI row at its recorded offset and leaves it at
// the ROI's right edge, so the cost follows the pixels counted. Without
// one (hand-built masks) it walks the control bytes of the rows above
// the ROI and runs every row to its end to find the next. The stream
// must have passed ValidateRLE (the store validates each mask once per
// open); rc is the query's quantized range, neither empty nor full
// (countMask answers those without the stream).
func exactCPRLE(m *Mask, roi Rect, rc *rangeCounter) int64 {
	rle, dir := m.RLE, m.RowDir
	i, xEnd := m.rleRowStart(roi.Y0), m.W
	if dir != nil {
		xEnd = roi.X1
	}
	var n int64
	for y := roi.Y0; y < roi.Y1; y++ {
		if dir != nil {
			i = int(dir[y])
		}
		for x := 0; x < xEnd; {
			c := int(rle[i])
			i++
			if c < 128 {
				runLen := c + 1
				x0, x1 := max(x, roi.X0), min(x+runLen, roi.X1)
				if x0 < x1 {
					n += rc.countRect(rle[i+(x0-x):i+(x1-x)], 0, Rect{0, 0, x1 - x0, 1})
				}
				i += runLen
				x += runLen
			} else {
				runLen := c - 126
				if rc.matches(rle[i]) {
					if ovl := min(x+runLen, roi.X1) - max(x, roi.X0); ovl > 0 {
						n += int64(ovl)
					}
				}
				i++
				x += runLen
			}
		}
	}
	return n
}

// accumRLEHistogram folds a validated RLE stream into per-cell CHI bin
// counts (the pre-suffix-sum accumulation of Build): a repeat run adds
// its per-cell overlap to one LUT bin in O(cells touched), and literal
// bytes go through the LUT individually — whole runs fold through the
// 256-entry table without decoding the mask.
func accumRLEHistogram(cum []int32, rle []byte, w, h, cellW, cellH, gw, k int, lut *[256]int32) {
	i := 0
	for y := 0; y < h; y++ {
		rowBase := (y / cellH) * gw
		x := 0
		for x < w {
			c := int(rle[i])
			i++
			if c < 128 {
				runLen := c + 1
				for _, b := range rle[i : i+runLen] {
					base := (rowBase + x/cellW) * k
					cum[base+int(lut[b])]++
					x++
				}
				i += runLen
			} else {
				runLen := c - 126
				bin := int(lut[rle[i]])
				i++
				for runLen > 0 {
					cellEnd := min((x/cellW+1)*cellW, w)
					span := min(runLen, cellEnd-x)
					base := (rowBase + x/cellW) * k
					cum[base+bin] += int32(span)
					x += span
					runLen -= span
				}
			}
		}
	}
}
