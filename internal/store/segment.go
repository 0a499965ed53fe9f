package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"masksearch/internal/core"
)

// segment is one immutable run of masks, ids [first, first+n), read
// from one directory's pixel file. The file is mapped whole at open and
// closed right after — a segment is never remapped, so it holds no file
// descriptor — and the mapping lives until Close. Only the cache budget
// and the counters below change after open.
type segment struct {
	first int64
	n     int
	data  []byte // the mapped pixel file; nil when it is empty
	unmap func()
	// offsets is the RLE offset column: n+1 entries, the k-th stream at
	// [offsets[k], offsets[k+1]).
	offsets []int64
	// dirs is the RLE validate-once state; nil under the raw codec.
	dirs *rleDirs

	// cache, when non-nil, tracks which of the segment's ids count as
	// resident so overlapping queries stop being charged for shared
	// masks. Set via SetCacheBytes.
	cache *maskCache

	// life counts read traffic since open with atomic adds, no lock.
	life readCounters
}

// openSegment maps the pixel file of the segment in dir that info
// describes. Fail fast on a truncated or padded file: a mapping longer
// than the file would fault mid-query on whatever mask falls past its
// end.
func (s *Store) openSegment(dir string, info ShardInfo) (*segment, error) {
	name := masksFile
	if s.codec == CodecRLE {
		name = masksRLEFile
	}
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	g := &segment{first: info.FirstID, n: info.NumMasks}
	if s.codec == CodecRLE {
		if g.offsets, err = readOffsets(filepath.Join(dir, masksRLEIndexFile), g.n); err != nil {
			return nil, err
		}
		if want := g.offsets[g.n]; fi.Size() != want {
			return nil, fmt.Errorf("masks.rle is %d bytes, offset column says %d — truncated or corrupted dataset", fi.Size(), want)
		}
		g.dirs = &rleDirs{state: make([]atomic.Uint32, g.n), rows: make([]uint32, g.n*s.h)}
	} else if want := int64(g.n) * int64(s.w) * int64(s.h); fi.Size() != want {
		return nil, fmt.Errorf("masks.bin is %d bytes, want exactly %d (%d masks of %dx%d) — truncated or corrupted dataset",
			fi.Size(), want, g.n, s.w, s.h)
	}
	if fi.Size() > 0 {
		if g.data, g.unmap, err = mapFile(f, fi.Size()); err != nil {
			return nil, fmt.Errorf("map %s: %w", f.Name(), err)
		}
	}
	return g, nil
}

// close unmaps the segment, ending the life of every view of it.
func (g *segment) close() {
	if g.unmap != nil {
		g.unmap()
	}
}

// readCounters is ReadStats (without the WAL layer's TailLoads) as
// lock-free counters. The two every load bumps are striped over
// cache-line-sized slots keyed by mask id, so workers loading different
// masks rarely add to the same line; snapshot sums the stripes.
type readCounters struct {
	loads [8]struct {
		masksLoaded, bytesRead atomic.Int64
		_                      [48]byte
	}
	cacheHits, cacheMisses, cacheEvicted atomic.Int64
}

func (c *readCounters) snapshot() ReadStats {
	st := ReadStats{
		CacheHits:    c.cacheHits.Load(),
		CacheMisses:  c.cacheMisses.Load(),
		CacheEvicted: c.cacheEvicted.Load(),
	}
	for i := range c.loads {
		st.MasksLoaded += c.loads[i].masksLoaded.Load()
		st.BytesRead += c.loads[i].bytesRead.Load()
	}
	return st
}

// headers recycles mask headers between LoadMask and ReleaseMask. A
// header owns no pixels — it views a mapping or a WAL tail copy — so
// one pool serves every store.
var headers = sync.Pool{New: func() any { return new(core.Mask) }}

// recycle returns a header to the header pool, cleared so an idle
// header keeps no WAL tail copy alive.
func recycle(m *core.Mask) {
	*m = core.Mask{}
	headers.Put(m)
}

// rleDirs is the validate-once state of the masks of one RLE segment:
// per mask a state word and the h row offsets core.IndexRLE records
// (4*(h+1) resident bytes per mask). A segment's files are immutable —
// the trust the raw layout already places in masks.bin — so a stream
// that validated once is not walked again; its slot moves dirNone →
// dirBuilding → dirReady exactly once, and rows are read only after
// dirReady is observed.
type rleDirs struct {
	state []atomic.Uint32
	rows  []uint32
}

const (
	dirNone uint32 = iota
	dirBuilding
	dirReady
)

// validate makes the stream view of the segment's k-th mask safe for
// the unchecked kernels and attaches its row directory. The first load
// of k walks the stream once — validation and directory in the same
// pass — and publishes the directory; later loads only attach it. A
// load that finds another goroutine mid-publication validates the
// stream itself and goes without a directory, which changes no result,
// only where the kernel starts walking.
func (d *rleDirs) validate(k int64, m *core.Mask) error {
	rows := d.rows[int(k)*m.H : int(k+1)*m.H : int(k+1)*m.H]
	st := &d.state[k]
	if st.Load() != dirReady {
		if !st.CompareAndSwap(dirNone, dirBuilding) {
			return core.ValidateRLE(m.RLE, m.W, m.H)
		}
		if err := core.IndexRLE(m.RLE, m.W, m.H, rows); err != nil {
			st.Store(dirNone)
			return err
		}
		st.Store(dirReady)
	}
	m.RowDir = rows
	return nil
}
