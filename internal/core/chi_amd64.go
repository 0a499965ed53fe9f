package core

// vecKernels reports that geCount9 and rangeCount16 are SSE2 kernels.
// SSE2 is part of the amd64 baseline, so every GOAMD64 level and every
// amd64 CPU runs them; no feature check is needed.
const vecKernels = true

// geCount9 adds to n[j] the number of bytes at or above threshold j in
// a block of rows rows of groups 16-byte groups each, the first at p
// and each stride bytes after the one before. thr holds each threshold
// broadcast over 16 bytes. Its byte accumulators wrap at 255, so the
// caller keeps rows*groups <= 255.
//
//go:noescape
func geCount9(thr *[9 * 16]byte, p *byte, stride, groups, rows int, n *[9]int32)

// rangeCount16 returns the number of bytes b with lo <= b <= lo+top
// (lo+top <= 255) in a block of rows rows of width >= 16 bytes, the
// first at p and each stride bytes after the one before. A row takes
// ceil(width/16) groups of 16, the last re-reading bytes of the one
// before when width is not a multiple of 16. Its byte accumulators
// wrap at 255, so the caller keeps rows*ceil(width/16) <= 255.
//
//go:noescape
func rangeCount16(p *byte, stride, width, rows int, lo, top byte) int
