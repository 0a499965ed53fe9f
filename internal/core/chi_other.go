//go:build !amd64

package core

// vecKernels reports that this platform has no geCount9 or rangeCount16
// kernel: every byte-domain cell is counted through the builder's byte
// tables and every verification row through the SWAR loops.
const vecKernels = false

func geCount9(thr *[9 * 16]byte, p *byte, stride, groups, rows int, n *[9]int32) {
	panic("core: geCount9 has no kernel on this platform")
}

func rangeCount16(p *byte, stride, width, rows int, lo, top byte) int {
	panic("core: rangeCount16 has no kernel on this platform")
}
