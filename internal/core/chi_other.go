//go:build !amd64

package core

// geKernel reports that this platform has no geCount9 kernel: every
// byte-domain cell is counted through the builder's byte tables.
const geKernel = false

func geCount9(thr *[9 * 16]byte, p *byte, stride, groups, rows int, n *[9]int32) {
	panic("core: geCount9 has no kernel on this platform")
}
