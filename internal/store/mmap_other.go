//go:build !unix

package store

import "os"

// mapFile on platforms without mmap reads the first n bytes of f — the
// whole file — into the heap, so the store keeps its single load path
// (views of one resident copy); there is nothing to unmap.
func mapFile(f *os.File, n int64) ([]byte, func(), error) {
	b := make([]byte, n)
	if _, err := f.ReadAt(b, 0); err != nil {
		return nil, nil, err
	}
	return b, func() {}, nil
}
