//go:build unix

package store

import (
	"os"
	"syscall"
)

// mapFile maps the first n bytes of f — the whole file — read-only and
// shared, and returns them with the function that unmaps them (munmap
// of a range we mapped cannot fail). The mapping outlives f: the caller
// may close it at once. n must be > 0.
func mapFile(f *os.File, n int64) ([]byte, func(), error) {
	m, err := syscall.Mmap(int(f.Fd()), 0, int(n), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	return m, func() { _ = syscall.Munmap(m) }, nil
}
