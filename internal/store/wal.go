package store

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"masksearch/internal/core"
)

// The write-ahead log lives in <db>/wal/ as numbered append-only
// segment files:
//
//	wal/seg-00000001.wal
//	wal/seg-00000002.wal
//	…
//
// Each segment starts with a fixed header (magic, first mask id, mask
// dimensions, CRC32C) followed by length-prefixed records:
//
//	[1B type][4B payload len][payload][4B CRC32C over type+len+payload]
//
// A batch of appended masks is N mask records ('M', metadata + raw
// pixels) followed by one commit record ('C', count + last id). The
// whole batch is buffered, written, and fsynced before Append
// acknowledges — acknowledged ⇒ durable. Recovery replays only masks
// covered by a valid commit record, so a crash mid-batch (torn record
// or missing commit) rolls the whole batch back: the torn tail is
// truncated at the last commit point and never propagated.
//
// All integers are little-endian; checksums use the Castagnoli
// polynomial (CRC32C).
const (
	walDirName = "wal"
	walMagic   = "MSWAL001"

	walHeaderSize = 28 // magic(8) + firstID(8) + w(4) + h(4) + crc(4)

	recMask   = 'M'
	recCommit = 'C'

	// maskRecFixed is the mask payload size before the pixel bytes: the
	// catalog entry encoding (putEntry) and pixLen(4).
	maskRecFixed = entrySize + 4

	// defaultRollBytes seals a segment once its durable size passes
	// this, bounding per-segment replay work and letting compaction
	// retire storage in pieces.
	defaultRollBytes = 4 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// IngestStats counts the ingestion path's work since Open.
type IngestStats struct {
	// AppendedMasks / AppendedBatches / AppendedBytes count
	// acknowledged Append traffic (bytes are pixel bytes).
	AppendedMasks   int64
	AppendedBatches int64
	AppendedBytes   int64
	// ReplayedMasks counts masks recovered from the WAL at Open.
	ReplayedMasks int64
	// TornTruncations counts torn WAL tails truncated (or empty torn
	// segments removed) by recovery.
	TornTruncations int64
	// TailMasks is the current number of WAL-resident masks (appended
	// but not yet compacted into the base layout).
	TailMasks int
	// WALSegments / WALBytes describe the live WAL (durable bytes).
	WALSegments int
	WALBytes    int64
	// Compactions / CompactedMasks count Compact runs that folded the
	// WAL into the base layout, and the masks they moved.
	Compactions    int64
	CompactedMasks int64
}

// tailMask is one WAL-resident mask: its raw pixels plus the segment
// file holding its durable copy (provenance for msinspect).
type tailMask struct {
	pix []byte
	seg string
}

// segInfo describes one sealed WAL segment: its durable, committed
// content.
type segInfo struct {
	name  string
	masks int
	bytes int64
}

// segWriter is the open, actively appended WAL segment.
type segWriter struct {
	name         string
	seq          int
	f            FileW
	firstID      int64
	off          int64 // bytes written, including any failed batch
	committedOff int64 // durable bytes through the last commit record
	masks        int   // committed masks
	broken       bool  // a write or fsync failed; roll before next use
}

// WALStore wraps a read-only base Store with an online ingestion path:
// Append writes masks to a checksummed WAL and acknowledges after
// fsync, loads of WAL-resident ids are served from an in-memory tail,
// and Compact folds the durable tail into the base as one new segment.
// Open a database through OpenIngest to get one.
//
// Reads and appends run concurrently: queries resolve their id space
// against a catalog snapshot (Catalog.View), and the id ranges they
// can see — base ids plus the committed WAL prefix at snapshot time —
// never move underneath them. Append, Compact and Close serialize
// against each other on mu.
type WALStore struct {
	base   *Store
	cat    *Catalog
	fsys   FS
	dir    string
	walDir string
	w, h   int

	mu        sync.Mutex
	man       Manifest // top-level manifest, updated by compaction
	active    *segWriter
	sealed    []segInfo
	nextSeg   int
	nextID    int64
	rollBytes int64
	closed    bool
	closeBase sync.Once

	// baseMax is the highest mask id the base store serves; ids above
	// it live in the WAL tail. Compaction bumps it after publishing a
	// segment, so a tail miss re-checks it before failing.
	baseMax atomic.Int64

	tailMu sync.RWMutex
	tail   map[int64]tailMask

	replayed []int64

	appendedMasks   atomic.Int64
	appendedBatches atomic.Int64
	appendedBytes   atomic.Int64
	replayedMasks   atomic.Int64
	tornTruncations atomic.Int64
	compactions     atomic.Int64
	compactedMasks  atomic.Int64
	tailLoads       atomic.Int64 // since Open
}

// OpenIngest opens a database directory for reading and online
// ingestion: it repairs any partial compaction left by a crash, opens
// the base layout, then scans the WAL — truncating torn tails at the
// first bad checksum or missing commit — and replays the durable prefix
// into the catalog.
// Mutating filesystem operations go through fsys (DirFS in production;
// a FaultFS under test).
func OpenIngest(fsys FS, dir string) (*WALStore, *Catalog, error) {
	man, err := LoadManifest(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	walDir := filepath.Join(dir, walDirName)
	hadWAL := false
	if fi, err := os.Stat(walDir); err == nil && fi.IsDir() {
		hadWAL = true
		if err := repairBase(fsys, dir, man); err != nil {
			return nil, nil, fmt.Errorf("store: open %s: repair: %w", dir, err)
		}
	}
	base, cat, err := Open(dir)
	if err != nil {
		return nil, nil, err
	}
	ws := &WALStore{
		base: base, cat: cat, fsys: fsys, dir: dir, walDir: walDir,
		w: base.MaskW(), h: base.MaskH(),
		man:       man,
		nextSeg:   1,
		rollBytes: defaultRollBytes,
		tail:      map[int64]tailMask{},
	}
	ws.baseMax.Store(int64(base.NumMasks()))
	ws.nextID = ws.baseMax.Load() + 1
	if hadWAL {
		if err := ws.recover(); err != nil {
			base.Close()
			return nil, nil, fmt.Errorf("store: open %s: wal recovery: %w", dir, err)
		}
	} else {
		if err := fsys.MkdirAll(walDir); err != nil {
			base.Close()
			return nil, nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
		if err := fsys.SyncDir(dir); err != nil {
			base.Close()
			return nil, nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	return ws, cat, nil
}

// repairBase undoes the visible effects of a compaction that crashed
// before its commit point (the manifest rename): segment directories
// the manifest does not list are removed. Everything it deletes is
// still covered by WAL segments, so no durable mask is lost.
func repairBase(fsys FS, dir string, man Manifest) error {
	names, err := filepath.Glob(filepath.Join(dir, "shard-*"))
	if err != nil {
		return err
	}
	listed := map[string]bool{}
	for _, info := range man.segments() {
		listed[filepath.Clean(info.Dir)] = true
	}
	removed := false
	for _, p := range names {
		if !listed[filepath.Base(p)] {
			if err := fsys.RemoveAll(p); err != nil {
				return err
			}
			removed = true
		}
	}
	if removed {
		return fsys.SyncDir(dir)
	}
	return nil
}

// recover scans the WAL segments in sequence order, truncates torn
// tails, removes segments already covered by the base layout, and
// replays the remaining durable masks into the catalog and tail.
func (ws *WALStore) recover() error {
	des, err := os.ReadDir(ws.walDir)
	if err != nil {
		return err
	}
	type segFile struct {
		name string
		seq  int
	}
	var segs []segFile
	for _, de := range des {
		name := de.Name()
		var seq int
		if _, err := fmt.Sscanf(name, "seg-%08d.wal", &seq); err != nil || !strings.HasSuffix(name, ".wal") {
			continue
		}
		segs = append(segs, segFile{name: name, seq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })

	baseMax := ws.baseMax.Load()
	expected := baseMax + 1
	removedAny := false
	for _, sf := range segs {
		path := filepath.Join(ws.walDir, sf.name)
		rec, err := scanSegment(path, ws.w, ws.h)
		if err != nil {
			return fmt.Errorf("segment %s: %w", sf.name, err)
		}
		if rec.torn {
			ws.tornTruncations.Add(1)
		}
		if len(rec.masks) == 0 {
			// Nothing durable in it (torn header, or no commit record
			// ever made it to disk): the segment carries no
			// acknowledged data and only clutters the sequence.
			if err := ws.fsys.Remove(path); err != nil {
				return err
			}
			removedAny = true
			continue
		}
		first, last := rec.masks[0].entry.MaskID, rec.masks[len(rec.masks)-1].entry.MaskID
		if last <= baseMax {
			// Fully covered by the base layout: a finished compaction
			// crashed before it got to delete this segment.
			if err := ws.fsys.Remove(path); err != nil {
				return err
			}
			removedAny = true
			continue
		}
		if first != expected {
			return fmt.Errorf("segment %s holds ids [%d, %d], want start %d — WAL sequence has a gap", sf.name, first, last, expected)
		}
		if rec.committedSize < rec.fileSize {
			if err := ws.fsys.Truncate(path, rec.committedSize); err != nil {
				return err
			}
		}
		ws.tailMu.Lock()
		entries := make([]Entry, 0, len(rec.masks))
		for _, m := range rec.masks {
			ws.tail[m.entry.MaskID] = tailMask{pix: m.pix, seg: sf.name}
			entries = append(entries, m.entry)
			ws.replayed = append(ws.replayed, m.entry.MaskID)
		}
		ws.tailMu.Unlock()
		ws.cat.Append(entries)
		ws.sealed = append(ws.sealed, segInfo{name: sf.name, masks: len(rec.masks), bytes: rec.committedSize})
		ws.replayedMasks.Add(int64(len(rec.masks)))
		expected = last + 1
		ws.nextSeg = sf.seq + 1
		ws.nextID = expected
	}
	if len(segs) > 0 && ws.nextSeg <= segs[len(segs)-1].seq {
		ws.nextSeg = segs[len(segs)-1].seq + 1
	}
	if removedAny {
		if err := ws.fsys.SyncDir(ws.walDir); err != nil {
			return err
		}
	}
	return nil
}

// scannedSeg is the durable content of one WAL segment file.
type scannedSeg struct {
	masks         []scannedMask
	committedSize int64
	fileSize      int64
	torn          bool
}

type scannedMask struct {
	entry Entry
	pix   []byte
}

// scanSegment reads one segment file and returns every mask covered by
// a valid commit record, stopping at the first bad checksum, short
// record, or batch without its commit. It never modifies the file; the
// caller truncates at committedSize.
func scanSegment(path string, w, h int) (scannedSeg, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return scannedSeg{}, err
	}
	out := scannedSeg{fileSize: int64(len(b))}
	if len(b) < walHeaderSize || string(b[:8]) != walMagic ||
		binary.LittleEndian.Uint32(b[24:28]) != crc32.Checksum(b[:24], castagnoli) {
		// Torn or foreign header: the header is fsynced before any
		// record, so nothing in this file can be durable data of ours.
		out.torn = true
		return out, nil
	}
	hw := int(int32(binary.LittleEndian.Uint32(b[16:20])))
	hh := int(int32(binary.LittleEndian.Uint32(b[20:24])))
	if hw != w || hh != h {
		return scannedSeg{}, fmt.Errorf("segment holds %dx%d masks, store is %dx%d", hw, hh, w, h)
	}
	off := int64(walHeaderSize)
	out.committedSize = off
	var pending []scannedMask
	for {
		rec, n, ok := nextRecord(b[off:])
		if !ok {
			break
		}
		switch rec.typ {
		case recMask:
			e, pix, err := decodeMaskPayload(rec.payload, w*h)
			if err != nil {
				out.torn = true
				return out, nil
			}
			if len(pending) > 0 && e.MaskID != pending[len(pending)-1].entry.MaskID+1 {
				out.torn = true
				return out, nil
			}
			pending = append(pending, scannedMask{entry: e, pix: pix})
		case recCommit:
			if len(rec.payload) != 12 {
				out.torn = true
				return out, nil
			}
			count := int(binary.LittleEndian.Uint32(rec.payload[0:4]))
			lastID := int64(binary.LittleEndian.Uint64(rec.payload[4:12]))
			if count != len(pending) || count == 0 || pending[count-1].entry.MaskID != lastID {
				out.torn = true
				return out, nil
			}
			out.masks = append(out.masks, pending...)
			pending = nil
			out.committedSize = off + n
		default:
			out.torn = true
			return out, nil
		}
		off += n
	}
	// A torn record, a batch missing its commit, or trailing garbage
	// all leave bytes past the last commit point.
	if out.committedSize < out.fileSize || len(pending) > 0 {
		out.torn = true
	}
	return out, nil
}

// nextRecord parses one record at the start of b, returning it with
// its encoded size. ok is false on a short or checksum-failing record.
func nextRecord(b []byte) (rec struct {
	typ     byte
	payload []byte
}, n int64, ok bool) {
	if len(b) == 0 {
		return rec, 0, false
	}
	if len(b) < 5 {
		return rec, 0, false
	}
	plen := int(binary.LittleEndian.Uint32(b[1:5]))
	total := 5 + plen + 4
	if plen < 0 || len(b) < total {
		return rec, 0, false
	}
	want := binary.LittleEndian.Uint32(b[5+plen : total])
	if crc32.Checksum(b[:5+plen], castagnoli) != want {
		return rec, 0, false
	}
	rec.typ = b[0]
	rec.payload = b[5 : 5+plen]
	return rec, int64(total), true
}

// appendRecord encodes one record (type, payload via fill) onto buf.
func appendRecord(buf []byte, typ byte, plen int, fill func(p []byte)) []byte {
	start := len(buf)
	buf = append(buf, typ, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(buf[start+1:], uint32(plen))
	buf = append(buf, make([]byte, plen)...)
	fill(buf[start+5 : start+5+plen])
	sum := crc32.Checksum(buf[start:], castagnoli)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], sum)
	return append(buf, crc[:]...)
}

// encodeMaskPayload fills p (maskRecFixed+len(pix) bytes) with one
// mask record payload.
func encodeMaskPayload(p []byte, e Entry, pix []byte) {
	putEntry(p, e)
	binary.LittleEndian.PutUint32(p[entrySize:], uint32(len(pix)))
	copy(p[maskRecFixed:], pix)
}

func decodeMaskPayload(p []byte, pixLen int) (Entry, []byte, error) {
	if len(p) < maskRecFixed {
		return Entry{}, nil, fmt.Errorf("short mask payload (%d bytes)", len(p))
	}
	e, err := getEntry(p)
	if err != nil {
		return Entry{}, nil, err
	}
	n := int(binary.LittleEndian.Uint32(p[entrySize:]))
	if n != pixLen || len(p) != maskRecFixed+n {
		return Entry{}, nil, fmt.Errorf("mask payload is %d pixel bytes, want %d", n, pixLen)
	}
	pix := make([]byte, n)
	copy(pix, p[maskRecFixed:])
	return e, pix, nil
}

// Base returns the wrapped base store (for segment introspection).
func (ws *WALStore) Base() *Store { return ws.base }

// ReplayedIDs returns the mask ids recovery replayed from the WAL, in
// id order; the DB facade feeds them to MemoryIndex.Observe so
// replayed masks are indexed like freshly appended ones.
func (ws *WALStore) ReplayedIDs() []int64 { return ws.replayed }

// SetRollBytes overrides the segment roll threshold (tests use tiny
// values to force multi-segment WALs).
func (ws *WALStore) SetRollBytes(n int64) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if n > 0 {
		ws.rollBytes = n
	}
}

// Append durably stores masks and returns their newly assigned,
// contiguous ids. The batch is written to the WAL as one transaction —
// N mask records plus a commit record — and fsynced before the method
// returns: an acknowledged append survives any crash, and a crash
// mid-batch rolls the entire batch back on recovery. On error nothing
// is acknowledged and the assigned ids are reused by the next attempt.
// A metadata field outside the catalog's 32-bit range is such an error:
// stored, it would read back as a different value after reopen.
func (ws *WALStore) Append(ctx context.Context, masks []IngestMask) ([]int64, error) {
	if len(masks) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	want := ws.w * ws.h
	for i, m := range masks {
		if len(m.Pix) != want {
			return nil, fmt.Errorf("store: append: mask %d has %d pixel bytes, want %d (%dx%d)", i, len(m.Pix), want, ws.w, ws.h)
		}
		if err := checkEntry(m.Entry); err != nil {
			return nil, fmt.Errorf("store: append: mask %d: %w", i, err)
		}
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.closed {
		return nil, fmt.Errorf("store: append: store is closed")
	}
	if err := ws.ensureSegmentLocked(); err != nil {
		return nil, err
	}

	// Encode the whole batch, ids assigned tentatively: they advance
	// only when the batch is durable, so a failed batch's ids are
	// reassigned by the retry.
	firstID := ws.nextID
	buf := make([]byte, 0, len(masks)*(9+maskRecFixed+want)+21)
	entries := make([]Entry, len(masks))
	ids := make([]int64, len(masks))
	for i, m := range masks {
		e := m.Entry
		e.MaskID = firstID + int64(i)
		entries[i] = e
		ids[i] = e.MaskID
		pix := m.Pix
		buf = appendRecord(buf, recMask, maskRecFixed+want, func(p []byte) {
			encodeMaskPayload(p, e, pix)
		})
	}
	lastID := ids[len(ids)-1]
	buf = appendRecord(buf, recCommit, 12, func(p []byte) {
		binary.LittleEndian.PutUint32(p[0:], uint32(len(masks)))
		binary.LittleEndian.PutUint64(p[4:], uint64(lastID))
	})

	seg := ws.active
	if _, err := seg.f.Write(buf); err != nil {
		seg.off += int64(len(buf)) // unknown how much landed; assume all
		ws.sealBrokenLocked()
		return nil, fmt.Errorf("store: append: wal write: %w", err)
	}
	seg.off += int64(len(buf))
	if err := seg.f.Sync(); err != nil {
		ws.sealBrokenLocked()
		return nil, fmt.Errorf("store: append: wal fsync: %w", err)
	}
	// Durable: acknowledge. Publish pixels before catalog rows so any
	// id a catalog snapshot exposes is already loadable.
	seg.committedOff = seg.off
	seg.masks += len(masks)
	ws.nextID = lastID + 1
	ws.tailMu.Lock()
	for i, e := range entries {
		pix := make([]byte, want)
		copy(pix, masks[i].Pix)
		ws.tail[e.MaskID] = tailMask{pix: pix, seg: seg.name}
	}
	ws.tailMu.Unlock()
	ws.cat.Append(entries)
	ws.appendedMasks.Add(int64(len(masks)))
	ws.appendedBatches.Add(1)
	ws.appendedBytes.Add(int64(len(masks) * want))
	return ids, nil
}

// ensureSegmentLocked makes sure a healthy, under-threshold active
// segment is open, rolling to a fresh one as needed. The new segment's
// header is written, fsynced, and its directory entry synced before
// any record lands in it.
func (ws *WALStore) ensureSegmentLocked() error {
	if seg := ws.active; seg != nil && !seg.broken && seg.committedOff < ws.rollBytes {
		return nil
	}
	ws.sealActiveLocked()
	name := fmt.Sprintf("seg-%08d.wal", ws.nextSeg)
	f, err := ws.fsys.Create(filepath.Join(ws.walDir, name))
	if err != nil {
		return fmt.Errorf("store: append: create wal segment: %w", err)
	}
	hdr := make([]byte, walHeaderSize)
	copy(hdr, walMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(ws.nextID))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(int32(ws.w)))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(int32(ws.h)))
	binary.LittleEndian.PutUint32(hdr[24:], crc32.Checksum(hdr[:24], castagnoli))
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("store: append: write wal header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: append: fsync wal header: %w", err)
	}
	if err := ws.fsys.SyncDir(ws.walDir); err != nil {
		f.Close()
		return fmt.Errorf("store: append: fsync wal dir: %w", err)
	}
	ws.active = &segWriter{
		name: name, seq: ws.nextSeg, f: f, firstID: ws.nextID,
		off: walHeaderSize, committedOff: walHeaderSize,
	}
	ws.nextSeg++
	return nil
}

// sealActiveLocked closes the active segment. Committed content is
// kept (joining the sealed list); a broken or empty segment is trimmed
// back to its committed bytes, or removed entirely when it holds none.
// Cleanup here is best-effort — recovery performs the same repairs on
// the next open.
func (ws *WALStore) sealActiveLocked() {
	seg := ws.active
	if seg == nil {
		return
	}
	ws.active = nil
	seg.f.Close()
	path := filepath.Join(ws.walDir, seg.name)
	if seg.masks == 0 {
		ws.fsys.Remove(path)
		return
	}
	if seg.off > seg.committedOff {
		ws.fsys.Truncate(path, seg.committedOff)
	}
	ws.sealed = append(ws.sealed, segInfo{name: seg.name, masks: seg.masks, bytes: seg.committedOff})
}

// sealBrokenLocked retires the active segment after a failed write or
// fsync: the next append rolls to a fresh segment rather than trusting
// a file whose on-disk state is unknown past the last commit.
func (ws *WALStore) sealBrokenLocked() {
	if ws.active != nil {
		ws.active.broken = true
	}
	ws.sealActiveLocked()
}

// Compact folds every durable WAL mask into the base layout as one new
// segment directory, committed by the top-level manifest rename, and
// deletes the retired WAL segments, returning the number of masks
// moved. Existing segments are never rewritten. A crash before the
// commit point leaves the WAL authoritative and recovery removes the
// unlisted directory; a crash after it leaves only redundant WAL
// segments, which recovery deletes.
//
// Compact holds the ingest lock for its duration, so appends stall
// while it runs; reads are unaffected.
func (ws *WALStore) Compact(ctx context.Context) (int, error) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.closed {
		return 0, fmt.Errorf("store: compact: store is closed")
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	ws.sealActiveLocked()
	baseMax := ws.baseMax.Load()
	n := int(ws.nextID - 1 - baseMax)
	if n == 0 {
		return 0, nil
	}

	// Gather the tail in id order: pixels from the tail map, metadata
	// from the catalog.
	entries := make([]Entry, 0, n)
	pixes := make([][]byte, 0, n)
	ws.tailMu.RLock()
	for id := baseMax + 1; id < ws.nextID; id++ {
		tm, ok := ws.tail[id]
		if !ok {
			ws.tailMu.RUnlock()
			return 0, fmt.Errorf("store: compact: mask %d missing from tail", id)
		}
		pixes = append(pixes, tm.pix)
	}
	ws.tailMu.RUnlock()
	for id := baseMax + 1; id < ws.nextID; id++ {
		e, err := ws.cat.Entry(id)
		if err != nil {
			return 0, fmt.Errorf("store: compact: %w", err)
		}
		entries = append(entries, e)
	}

	if err := ws.compactLocked(entries, pixes); err != nil {
		return 0, err
	}

	// Committed and published: the WAL segments are now redundant.
	ws.tailMu.Lock()
	for id := baseMax + 1; id < ws.nextID; id++ {
		delete(ws.tail, id)
	}
	ws.tailMu.Unlock()
	for _, seg := range ws.sealed {
		ws.fsys.Remove(filepath.Join(ws.walDir, seg.name))
	}
	ws.sealed = nil
	ws.fsys.SyncDir(ws.walDir)
	ws.compactions.Add(1)
	ws.compactedMasks.Add(int64(n))
	return n, nil
}

// compactLocked writes the tail as one brand-new segment directory
// holding exactly this batch — pixels in the base's codec, catalog.bin
// and a segment manifest, each fsynced — maps it, then commits it by
// renaming the new top-level manifest into place and syncing the
// directory, and publishes it into the live base.
func (ws *WALStore) compactLocked(entries []Entry, pixes [][]byte) error {
	rows, err := encodeCatalog(entries)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	firstID := entries[0].MaskID
	segs := ws.man.segments()
	name := ShardDirName(len(segs))
	segDir := filepath.Join(ws.dir, name)
	if err := ws.fsys.RemoveAll(segDir); err != nil {
		return fmt.Errorf("store: compact: clear stale segment dir: %w", err)
	}
	if err := ws.fsys.MkdirAll(segDir); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	maskName := masksFile
	if ws.man.Codec == CodecRLE {
		maskName = masksRLEFile
	}
	f, err := ws.fsys.Create(filepath.Join(segDir, maskName))
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	offs := []int64{0}
	for _, pix := range pixes {
		data := pix
		if ws.man.Codec == CodecRLE {
			data = core.EncodeRLE(pix, ws.w, ws.h)
			offs = append(offs, offs[len(offs)-1]+int64(len(data)))
		}
		if _, err := f.Write(data); err != nil {
			f.Close()
			return fmt.Errorf("store: compact: write segment pixels: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: compact: fsync segment pixels: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if ws.man.Codec == CodecRLE {
		if err := writeFileSync(ws.fsys, filepath.Join(segDir, masksRLEIndexFile), encodeOffsets(offs)); err != nil {
			return fmt.Errorf("store: compact: write segment offset column: %w", err)
		}
	}
	if err := writeFileSync(ws.fsys, filepath.Join(segDir, catalogBinFile), rows); err != nil {
		return fmt.Errorf("store: compact: write segment catalog: %w", err)
	}
	segMan := Manifest{Spec: ws.man.Spec, NumMasks: len(entries), FirstID: firstID,
		Codec: ws.man.Codec, GenVersion: ws.man.GenVersion}
	if err := writeJSONSync(ws.fsys, filepath.Join(segDir, manifestFile), segMan); err != nil {
		return fmt.Errorf("store: compact: write segment manifest: %w", err)
	}
	if err := ws.fsys.SyncDir(segDir); err != nil {
		return fmt.Errorf("store: compact: fsync segment dir: %w", err)
	}
	// The segment is durable, so map it now: nothing after the commit
	// point may fail. A failed commit's retry rewrites the directory.
	info := ShardInfo{Dir: name, FirstID: firstID, NumMasks: len(entries)}
	g, err := ws.base.openSegment(segDir, info)
	if err != nil {
		return fmt.Errorf("store: compact: map new segment: %w", err)
	}
	man := ws.man
	man.Shards = append(append([]ShardInfo{}, segs...), info)
	man.NumMasks += len(entries)
	if err := writeJSONSync(ws.fsys, filepath.Join(ws.dir, manifestFile), man); err != nil {
		g.close()
		return fmt.Errorf("store: compact: write manifest: %w", err)
	}
	if err := ws.fsys.SyncDir(ws.dir); err != nil {
		g.close()
		return fmt.Errorf("store: compact: fsync dir: %w", err)
	}
	ws.man = man
	ws.base.addSegment(g)
	ws.baseMax.Add(int64(len(entries)))
	return nil
}

// LoadMask serves base ids from the base store and WAL-resident ids
// from the in-memory tail: a pooled header over the tail's own pixel
// copy, private and immutable from Append on. A compaction that drops
// the tail entry leaves a lent copy to the garbage collector.
func (ws *WALStore) LoadMask(id int64) (*core.Mask, error) {
	tm, err := ws.tailMask(id)
	if err != nil {
		return nil, err
	}
	if tm.pix == nil {
		return ws.base.LoadMask(id)
	}
	m := headers.Get().(*core.Mask)
	m.W, m.H, m.Bytes = ws.w, ws.h, tm.pix
	ws.tailLoads.Add(1)
	return m, nil
}

// tailMask resolves id to its WAL tail entry; a zero tailMask means the
// base store serves the id.
func (ws *WALStore) tailMask(id int64) (tailMask, error) {
	if id <= ws.baseMax.Load() {
		return tailMask{}, nil
	}
	ws.tailMu.RLock()
	tm, ok := ws.tail[id]
	ws.tailMu.RUnlock()
	// On a miss, compaction may have migrated the id between the baseMax
	// check and the tail lookup; the base serves it now.
	if !ok && id > ws.baseMax.Load() {
		return tailMask{}, fmt.Errorf("store: mask id %d out of range [1, %d]", id, ws.nextIDSnapshot()-1)
	}
	return tm, nil
}

// LoadRegion serves sub-rectangle reads, from the base store or the
// tail copy.
func (ws *WALStore) LoadRegion(id int64, r core.Rect) (*core.Mask, error) {
	tm, err := ws.tailMask(id)
	if err != nil {
		return nil, err
	}
	if tm.pix == nil {
		return ws.base.LoadRegion(id, r)
	}
	r = r.Intersect(core.Rect{X0: 0, Y0: 0, X1: ws.w, Y1: ws.h})
	if r.Empty() {
		return core.NewByteMask(0, 0), nil
	}
	out := core.NewByteMask(r.W(), r.H())
	copyRegion(out.Bytes, tm.pix, ws.w, r)
	ws.tailLoads.Add(1)
	return out, nil
}

// ReleaseMask hands the mask to the base store, which recycles its
// header — tail masks included.
func (ws *WALStore) ReleaseMask(m *core.Mask) { ws.base.ReleaseMask(m) }

// nextIDSnapshot reads nextID without the ingest lock (error paths
// only; the value is advisory).
func (ws *WALStore) nextIDSnapshot() int64 {
	ws.tailMu.RLock()
	defer ws.tailMu.RUnlock()
	return ws.baseMax.Load() + int64(len(ws.tail)) + 1
}

// NumMasks returns the stored mask count: base plus durable tail. The
// catalog is its authoritative mirror.
func (ws *WALStore) NumMasks() int { return ws.cat.Len() }

// MaskW and MaskH return the common mask dimensions.
func (ws *WALStore) MaskW() int { return ws.w }
func (ws *WALStore) MaskH() int { return ws.h }

// DataBytes returns the total logical pixel bytes, tail included.
func (ws *WALStore) DataBytes() int64 {
	return int64(ws.NumMasks()) * int64(ws.w) * int64(ws.h)
}

// Codec returns the base layout's pixel encoding. WAL tail masks are
// always raw in their segments; Compact folds them into the codec.
func (ws *WALStore) Codec() string { return ws.base.Codec() }

// GenVersion reports the base layout's generator version; compaction
// never changes it, so the base's immutable value is authoritative.
func (ws *WALStore) GenVersion() int { return ws.base.GenVersion() }

// StoredBytes returns the base layout's on-disk mask data size. WAL
// segment bytes are reported separately via IngestStats.WALBytes.
func (ws *WALStore) StoredBytes() int64 { return ws.base.StoredBytes() }

// Dir returns the database directory.
func (ws *WALStore) Dir() string { return ws.dir }

// MaskLocation reports where a mask currently lives: "base" for ids in
// the compacted layout, "wal:<segment file>" for WAL-resident ids, ""
// for unknown ids. msinspect surfaces it as row provenance.
func (ws *WALStore) MaskLocation(id int64) string {
	if id >= 1 && id <= ws.baseMax.Load() {
		return "base"
	}
	ws.tailMu.RLock()
	tm, ok := ws.tail[id]
	ws.tailMu.RUnlock()
	if ok {
		return "wal:" + tm.seg
	}
	if id >= 1 && id <= ws.baseMax.Load() {
		return "base"
	}
	return ""
}

// Close seals the WAL and closes the base store, which unmaps its pixel
// files and so ends the life of every loaded mask. In-flight appends
// must have drained (the DB facade's close path guarantees it).
// Repeated calls return nil.
func (ws *WALStore) Close() error {
	ws.CloseWAL()
	var err error
	ws.closeBase.Do(func() { err = ws.base.Close() })
	return err
}

// CloseWAL is the ingestion half of Close: it seals the WAL, so Append
// and Compact fail from then on, but loaded masks stay valid until
// Close. The DB facade stops here while masks it lent are still held.
func (ws *WALStore) CloseWAL() {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if !ws.closed {
		ws.closed = true
		ws.sealActiveLocked()
	}
}

// SetCacheBytes and CacheBytes delegate to the base store; the tail is
// always RAM-resident and needs no cache.
func (ws *WALStore) SetCacheBytes(n int64) { ws.base.SetCacheBytes(n) }
func (ws *WALStore) CacheBytes() int64     { return ws.base.CacheBytes() }

// Stats returns the read counters since Open, with tail loads folded
// in.
func (ws *WALStore) Stats() ReadStats {
	s := ws.base.Stats()
	s.TailLoads = ws.tailLoads.Load()
	return s
}

// IngestStats returns the ingestion counters.
func (ws *WALStore) IngestStats() IngestStats {
	st := IngestStats{
		AppendedMasks:   ws.appendedMasks.Load(),
		AppendedBatches: ws.appendedBatches.Load(),
		AppendedBytes:   ws.appendedBytes.Load(),
		ReplayedMasks:   ws.replayedMasks.Load(),
		TornTruncations: ws.tornTruncations.Load(),
		Compactions:     ws.compactions.Load(),
		CompactedMasks:  ws.compactedMasks.Load(),
	}
	ws.tailMu.RLock()
	st.TailMasks = len(ws.tail)
	ws.tailMu.RUnlock()
	ws.mu.Lock()
	for _, seg := range ws.sealed {
		st.WALSegments++
		st.WALBytes += seg.bytes
	}
	if ws.active != nil {
		st.WALSegments++
		st.WALBytes += ws.active.committedOff
	}
	ws.mu.Unlock()
	return st
}

// writeJSONSync writes v as indented JSON through fsys with the
// fsync-then-rename discipline (writeFileSync); the caller syncs the
// parent directory at its commit point.
func writeJSONSync(fsys FS, path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeFileSync(fsys, path, append(b, '\n'))
}
