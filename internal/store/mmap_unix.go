//go:build unix

package store

import (
	"os"
	"syscall"
)

// mapFile maps the byte range [off, off+n) of f read-only and shared,
// from the page boundary at or below off, and returns the range with
// the function that unmaps it (munmap of a range we mapped cannot
// fail). n must be > 0 and the range must lie inside the file.
func mapFile(f *os.File, off, n int64) ([]byte, func(), error) {
	lead := off % int64(os.Getpagesize())
	m, err := syscall.Mmap(int(f.Fd()), off-lead, int(lead+n), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	return m[lead:len(m):len(m)], func() { _ = syscall.Munmap(m) }, nil
}
