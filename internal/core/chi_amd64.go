package core

// geKernel reports that geCount9 is an SSE2 kernel. SSE2 is part of
// the amd64 baseline, so every GOAMD64 level and every amd64 CPU runs
// it; no feature check is needed.
const geKernel = true

// geCount9 adds to n[j] the number of bytes at or above threshold j in
// a block of rows rows of groups 16-byte groups each, the first at p
// and each stride bytes after the one before. thr holds each threshold
// broadcast over 16 bytes. Its byte accumulators wrap at 255, so the
// caller keeps rows*groups <= 255.
//
//go:noescape
func geCount9(thr *[9 * 16]byte, p *byte, stride, groups, rows int, n *[9]int32)
