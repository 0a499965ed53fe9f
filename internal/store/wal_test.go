package store

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"masksearch/internal/core"
)

// openIngestTiny generates a small dataset (sharded when shards > 1)
// and opens it for ingestion over the plain os-backed DirFS.
func openIngestTiny(t *testing.T, shards int) (string, *WALStore, *Catalog) {
	t.Helper()
	dir := t.TempDir()
	spec := Spec{Name: "t", Images: 8, Models: 1, W: 16, H: 16, Seed: 3}
	if err := Generate(dir, spec, shards, CodecRaw); err != nil {
		t.Fatal(err)
	}
	ws, cat, err := OpenIngest(DirFS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.Close() })
	return dir, ws, cat
}

// ingestBatch builds n deterministic masks whose pixels encode (seed,
// index) so tests can verify byte-exact recovery.
func ingestBatch(n, w, h int, seed byte) []IngestMask {
	masks := make([]IngestMask, n)
	for i := range masks {
		pix := make([]byte, w*h)
		for j := range pix {
			pix[j] = seed + byte(i) + byte(j%7)
		}
		masks[i] = IngestMask{
			Entry: Entry{
				ImageID: int64(100 + i), ModelID: 1, MaskType: TypeSaliency,
				Label: i % 3, Pred: i % 2,
				Object: core.Rect{X0: 2, Y0: 2, X1: 10, Y1: 10},
			},
			Pix: pix,
		}
	}
	return masks
}

func TestWALAppendAck(t *testing.T) {
	_, ws, cat := openIngestTiny(t, 1)
	base := cat.Len()
	ids, err := ws.Append(context.Background(), ingestBatch(5, 16, 16, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 5 || ids[0] != int64(base+1) || ids[4] != int64(base+5) {
		t.Fatalf("acked ids %v, want [%d..%d]", ids, base+1, base+5)
	}
	if cat.Len() != base+5 {
		t.Fatalf("catalog %d rows, want %d", cat.Len(), base+5)
	}
	// Tail reads return the exact bytes appended.
	want := ingestBatch(5, 16, 16, 1)
	for i, id := range ids {
		m, err := ws.LoadMask(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m.Bytes, want[i].Pix) {
			t.Fatalf("mask %d pixels differ from appended bytes", id)
		}
		if loc := ws.MaskLocation(id); loc != "wal:seg-00000001.wal" {
			t.Fatalf("mask %d location %q, want wal:seg-00000001.wal", id, loc)
		}
		ws.ReleaseMask(m)
	}
	st := ws.IngestStats()
	if st.AppendedMasks != 5 || st.AppendedBatches != 1 || st.TailMasks != 5 || st.WALSegments != 1 {
		t.Fatalf("ingest stats %+v", st)
	}
}

func TestWALReopenReplaysDurablePrefix(t *testing.T) {
	dir, ws, cat := openIngestTiny(t, 1)
	base := cat.Len()
	var all []IngestMask
	for b := 0; b < 3; b++ {
		batch := ingestBatch(4, 16, 16, byte(10*b+1))
		if _, err := ws.Append(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		all = append(all, batch...)
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}

	ws2, cat2, err := OpenIngest(DirFS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ws2.Close()
	if cat2.Len() != base+12 {
		t.Fatalf("reopened catalog %d rows, want %d", cat2.Len(), base+12)
	}
	if got := len(ws2.ReplayedIDs()); got != 12 {
		t.Fatalf("replayed %d ids, want 12", got)
	}
	if st := ws2.IngestStats(); st.ReplayedMasks != 12 || st.TornTruncations != 0 {
		t.Fatalf("ingest stats after clean reopen: %+v", st)
	}
	for i, id := range ws2.ReplayedIDs() {
		m, err := ws2.LoadMask(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m.Bytes, all[i].Pix) {
			t.Fatalf("replayed mask %d pixels differ", id)
		}
		e, err := cat2.Entry(id)
		if err != nil {
			t.Fatal(err)
		}
		if e.ImageID != all[i].Entry.ImageID || e.Object != all[i].Entry.Object {
			t.Fatalf("replayed mask %d metadata %+v differs from appended %+v", id, e, all[i].Entry)
		}
		ws2.ReleaseMask(m)
	}
	// The reopened store continues the id space where the WAL left off.
	ids, err := ws2.Append(context.Background(), ingestBatch(1, 16, 16, 99))
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != int64(base+13) {
		t.Fatalf("post-recovery append got id %d, want %d", ids[0], base+13)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir, ws, cat := openIngestTiny(t, 1)
	base := cat.Len()
	if _, err := ws.Append(context.Background(), ingestBatch(3, 16, 16, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Append(context.Background(), ingestBatch(3, 16, 16, 50)); err != nil {
		t.Fatal(err)
	}
	ws.Close()

	seg := filepath.Join(dir, walDirName, "seg-00000001.wal")
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the file mid-way through the second batch: everything past
	// the first commit record must roll back, nothing before it may.
	cut := walHeaderSize + (len(b)-walHeaderSize)/2 + 40
	if err := os.WriteFile(seg, b[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	ws2, cat2, err := OpenIngest(DirFS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ws2.Close()
	if cat2.Len() != base+3 {
		t.Fatalf("catalog after torn reopen: %d rows, want %d (first batch only)", cat2.Len(), base+3)
	}
	if st := ws2.IngestStats(); st.TornTruncations != 1 || st.ReplayedMasks != 3 {
		t.Fatalf("ingest stats after torn reopen: %+v", st)
	}
	// The torn bytes are gone from disk: a second reopen is clean.
	ws2.Close()
	ws3, cat3, err := OpenIngest(DirFS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ws3.Close()
	if st := ws3.IngestStats(); st.TornTruncations != 0 || cat3.Len() != base+3 {
		t.Fatalf("second reopen not clean: stats %+v, %d rows", st, cat3.Len())
	}
}

func TestWALCorruptChecksumRollsBackBatch(t *testing.T) {
	dir, ws, cat := openIngestTiny(t, 1)
	base := cat.Len()
	if _, err := ws.Append(context.Background(), ingestBatch(2, 16, 16, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Append(context.Background(), ingestBatch(2, 16, 16, 60)); err != nil {
		t.Fatal(err)
	}
	ws.Close()

	// Flip one pixel byte inside the second batch's first mask record;
	// its CRC fails, so the whole second batch must vanish even though
	// its commit record is intact on disk.
	seg := filepath.Join(dir, walDirName, "seg-00000001.wal")
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	recSize := 9 + maskRecFixed + 16*16
	commitSize := 9 + 12
	batchStart := walHeaderSize + 2*recSize + commitSize
	b[batchStart+100] ^= 0xFF
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}

	ws2, cat2, err := OpenIngest(DirFS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ws2.Close()
	if cat2.Len() != base+2 {
		t.Fatalf("catalog %d rows, want %d — corrupt batch must roll back", cat2.Len(), base+2)
	}
	if st := ws2.IngestStats(); st.TornTruncations != 1 {
		t.Fatalf("ingest stats %+v, want one torn truncation", st)
	}
}

func TestWALSegmentRoll(t *testing.T) {
	dir, ws, cat := openIngestTiny(t, 1)
	base := cat.Len()
	ws.SetRollBytes(1) // every batch rolls to a fresh segment
	for b := 0; b < 4; b++ {
		if _, err := ws.Append(context.Background(), ingestBatch(2, 16, 16, byte(b+1))); err != nil {
			t.Fatal(err)
		}
	}
	if st := ws.IngestStats(); st.WALSegments != 4 {
		t.Fatalf("WAL segments %d, want 4 (roll threshold 1 byte)", st.WALSegments)
	}
	loc1 := ws.MaskLocation(int64(base + 1))
	loc7 := ws.MaskLocation(int64(base + 7))
	if loc1 == loc7 || loc1 != "wal:seg-00000001.wal" {
		t.Fatalf("segment provenance: mask %d in %q, mask %d in %q", base+1, loc1, base+7, loc7)
	}
	ws.Close()
	ws2, cat2, err := OpenIngest(DirFS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ws2.Close()
	if cat2.Len() != base+8 {
		t.Fatalf("reopen across segments: %d rows, want %d", cat2.Len(), base+8)
	}
}

func TestWALCompactSingle(t *testing.T) {
	dir, ws, cat := openIngestTiny(t, 1)
	base := cat.Len()
	want := ingestBatch(6, 16, 16, 7)
	ids, err := ws.Append(context.Background(), want)
	if err != nil {
		t.Fatal(err)
	}
	n, err := ws.Compact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("compacted %d masks, want 6", n)
	}
	st := ws.IngestStats()
	if st.TailMasks != 0 || st.WALSegments != 0 || st.Compactions != 1 || st.CompactedMasks != 6 {
		t.Fatalf("post-compact stats %+v", st)
	}
	for i, id := range ids {
		if loc := ws.MaskLocation(id); loc != "base" {
			t.Fatalf("mask %d location %q after compact, want base", id, loc)
		}
		m, err := ws.LoadMask(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m.Bytes, want[i].Pix) {
			t.Fatalf("mask %d pixels differ after compact", id)
		}
		ws.ReleaseMask(m)
	}
	// A plain read-only Open sees the compacted dataset.
	ws.Close()
	st2, cat2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.NumMasks() != base+6 || cat2.Len() != base+6 {
		t.Fatalf("read-only reopen: store %d, catalog %d, want %d", st2.NumMasks(), cat2.Len(), base+6)
	}
	m, err := st2.LoadMask(int64(base + 3))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Bytes, want[2].Pix) {
		t.Fatalf("compacted pixels differ under read-only open")
	}
}

func TestWALCompactSharded(t *testing.T) {
	dir, ws, cat := openIngestTiny(t, 2)
	base := cat.Len()
	ss := ws.Base()
	shards := ss.NumShards()
	want := ingestBatch(5, 16, 16, 9)
	ids, err := ws.Append(context.Background(), want)
	if err != nil {
		t.Fatal(err)
	}
	n, err := ws.Compact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatal("compacted", n, "masks, want 5")
	}
	if ss.NumShards() != shards+1 {
		t.Fatalf("shards after compact: %d, want %d", ss.NumShards(), shards+1)
	}
	for i, id := range ids {
		m, err := ws.LoadMask(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m.Bytes, want[i].Pix) {
			t.Fatalf("mask %d pixels differ after sharded compact", id)
		}
		ws.ReleaseMask(m)
	}
	// A second ingest+compact round adds another shard; then a plain
	// reopen must assemble all of it.
	if _, err := ws.Append(context.Background(), ingestBatch(3, 16, 16, 21)); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	ws.Close()
	st2, cat2, err := OpenAny(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.NumMasks() != base+8 || cat2.Len() != base+8 {
		t.Fatalf("reopen after sharded compacts: store %d, catalog %d, want %d", st2.NumMasks(), cat2.Len(), base+8)
	}
}

func TestWALAppendFailureReassignsIDs(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Name: "t", Images: 4, Models: 1, W: 16, H: 16, Seed: 3}
	if err := Generate(dir, spec, 1, CodecRaw); err != nil {
		t.Fatal(err)
	}
	ff := NewFaultFS(KeepAll)
	ws, cat, err := OpenIngest(ff, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	base := cat.Len()

	if _, err := ws.Append(context.Background(), ingestBatch(2, 16, 16, 1)); err != nil {
		t.Fatal(err)
	}
	// Fail the next batch's fsync: it must not be acknowledged, and its
	// ids must be reassigned to the retry.
	boom := errors.New("disk full")
	ff.SetFailAt(ff.Ops()+1, boom) // op 0 after this point is the Write, 1 the Sync
	if _, err := ws.Append(context.Background(), ingestBatch(2, 16, 16, 2)); !errors.Is(err, boom) {
		t.Fatalf("append with failing fsync: err %v, want %v", err, boom)
	}
	if cat.Len() != base+2 {
		t.Fatalf("failed batch visible in catalog: %d rows, want %d", cat.Len(), base+2)
	}
	ids, err := ws.Append(context.Background(), ingestBatch(2, 16, 16, 3))
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != int64(base+3) || ids[1] != int64(base+4) {
		t.Fatalf("retry ids %v, want [%d %d]", ids, base+3, base+4)
	}
	// After reopen only acknowledged masks exist.
	ws.Close()
	ws2, cat2, err := OpenIngest(DirFS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ws2.Close()
	if cat2.Len() != base+4 {
		t.Fatalf("reopen after failed batch: %d rows, want %d", cat2.Len(), base+4)
	}
}

// TestAppendRejectsOutOfRangeFields: a metadata field that does not fit
// its 32-bit slot would be acked and then read back as another value
// after reopen. Append must refuse the batch before writing a byte,
// naming the field and the mask, so the next append reuses the ids;
// values at the ends of the range are acked and survive reopen exactly.
func TestAppendRejectsOutOfRangeFields(t *testing.T) {
	dir, ws, cat := openIngestTiny(t, 1)
	base := cat.Len()
	ctx := context.Background()
	for _, tc := range []struct {
		field string
		set   func(*Entry)
	}{
		{"label", func(e *Entry) { e.Label = 1 << 31 }},
		{"pred", func(e *Entry) { e.Pred = -1<<31 - 1 }},
		{"model_id", func(e *Entry) { e.ModelID = 1 << 40 }},
		{"mask_type", func(e *Entry) { e.MaskType = 1 << 32 }},
		{"object.y1", func(e *Entry) { e.Object.Y1 = 1 << 31 }},
	} {
		batch := ingestBatch(3, 16, 16, 1)
		tc.set(&batch[2].Entry)
		_, err := ws.Append(ctx, batch)
		if err == nil || !strings.Contains(err.Error(), "mask 2: "+tc.field) {
			t.Fatalf("append with an out-of-range %s: err = %v, want one naming mask 2 and the field", tc.field, err)
		}
		if cat.Len() != base {
			t.Fatalf("rejected batch reached the catalog: %d rows, want %d", cat.Len(), base)
		}
	}
	batch := ingestBatch(2, 16, 16, 1)
	batch[1].Entry.Label, batch[1].Entry.Pred = math.MaxInt32, math.MinInt32
	batch[1].Entry.Object = core.Rect{X0: math.MinInt32, Y0: 0, X1: math.MaxInt32, Y1: 1}
	ids, err := ws.Append(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != int64(base+1) {
		t.Fatalf("ids after rejected batches start at %d, want %d", ids[0], base+1)
	}
	ws.Close()
	ws2, cat2, err := OpenIngest(DirFS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ws2.Close()
	e, err := cat2.Entry(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	want := batch[1].Entry
	want.MaskID = ids[1]
	if e != want {
		t.Fatalf("replayed row %+v, want %+v", e, want)
	}
}

func TestWALGapDetected(t *testing.T) {
	dir, ws, _ := openIngestTiny(t, 1)
	ws.SetRollBytes(1)
	for b := 0; b < 3; b++ {
		if _, err := ws.Append(context.Background(), ingestBatch(1, 16, 16, byte(b+1))); err != nil {
			t.Fatal(err)
		}
	}
	ws.Close()
	// Deleting a middle segment leaves an id gap; recovery must refuse
	// loudly rather than replay masks with missing predecessors.
	if err := os.Remove(filepath.Join(dir, walDirName, "seg-00000002.wal")); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenIngest(DirFS(), dir)
	if err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("open with missing middle segment: err %v, want gap error", err)
	}
}

// TestWALConcurrentAppendReadCompact hammers the three operations at
// once under -race: appends assign ids, readers load whatever ids the
// catalog exposes, compactions migrate the tail mid-read. Every load
// must succeed with the right dimensions — the snapshot contract says
// an id visible in the catalog is always loadable.
func TestWALConcurrentAppendReadCompact(t *testing.T) {
	_, ws, cat := openIngestTiny(t, 1)
	const (
		appenders = 3
		batches   = 20
	)
	var appWg, wg sync.WaitGroup
	stop := make(chan struct{})
	for a := 0; a < appenders; a++ {
		appWg.Add(1)
		go func(a int) {
			defer appWg.Done()
			for b := 0; b < batches; b++ {
				if _, err := ws.Append(context.Background(), ingestBatch(2, 16, 16, byte(a*batches+b))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(a)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ws.Compact(context.Background()); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				view := cat.View()
				for _, id := range view.MaskIDs(nil) {
					m, err := ws.LoadMask(id)
					if err != nil {
						t.Errorf("load %d (view max %d): %v", id, view.MaxID(), err)
						return
					}
					if len(m.Bytes) != 16*16 {
						t.Errorf("load %d: %d bytes", id, len(m.Bytes))
					}
					ws.ReleaseMask(m)
				}
			}
		}()
	}
	appWg.Wait()
	close(stop)
	wg.Wait()
	if n := cat.Len(); n != 8+appenders*batches*2 {
		t.Fatalf("final catalog %d rows, want %d", n, 8+appenders*batches*2)
	}
	if _, err := ws.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := ws.IngestStats(); st.TailMasks != 0 || st.WALSegments != 0 {
		t.Fatalf("final stats %+v, want empty tail and WAL", st)
	}
}

// TestStatsMonotoneUnderLoad reads Stats and ShardStats while
// goroutines load across three segments and a WAL tail through an
// evicting cache: no counter of consecutive snapshots may go backwards
// (the coordinator's foldReads differences them), and once the loads
// settle the counters equal the exact load counts.
func TestStatsMonotoneUnderLoad(t *testing.T) {
	_, ws, _ := openIngestTiny(t, 3)
	if n := ws.Base().NumShards(); n != 3 {
		t.Fatalf("%d segments, want 3", n)
	}
	baseN := int64(ws.NumMasks())
	tail, err := ws.Append(context.Background(), ingestBatch(4, 16, 16, 1))
	if err != nil {
		t.Fatal(err)
	}
	ws.SetCacheBytes(3 * 16 * 16) // one mask per segment arena
	const (
		loaders = 4
		rounds  = 200
	)
	backwards := func(prev, cur ReadStats) bool {
		d := cur.Sub(prev)
		return min(d.MasksLoaded, d.RegionReads, d.BytesRead, d.CacheHits, d.CacheMisses, d.CacheEvicted, d.TailLoads) < 0
	}
	before := ws.Stats()
	done := make(chan struct{})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for r := 0; r < rounds && !stop.Load(); r++ {
				for id := int64(1); id <= tail[len(tail)-1]; id++ {
					m, err := ws.LoadMask(id)
					if err != nil {
						t.Error(err)
						return
					}
					ws.ReleaseMask(m)
				}
				if _, err := ws.LoadRegion(int64(1+(l+r)%int(baseN)), core.Rect{X0: 0, Y0: 0, X1: 4, Y1: 4}); err != nil {
					t.Error(err)
					return
				}
			}
		}(l)
	}
	go func() { wg.Wait(); close(done) }()
	// A failing check returns early; the loaders must be gone before
	// the cleanup closes the store and unmaps what they read.
	defer func() { stop.Store(true); <-done }()
	prev, prevPer := ws.Stats(), ws.Base().ShardStats()
	for snaps := 0; ; snaps++ {
		select {
		case <-done:
			t.Logf("%d snapshot pairs", snaps)
			s := ws.Stats().Sub(before)
			loads := int64(loaders * rounds)
			if s.RegionReads != loads || s.TailLoads != loads*int64(len(tail)) ||
				s.MasksLoaded+s.CacheHits != loads*baseN || s.CacheMisses != s.MasksLoaded ||
				s.BytesRead != s.MasksLoaded*16*16+loads*16 {
				t.Fatalf("final stats %+v: want %d region reads, %d tail loads, %d base loads (hits + misses), 256 bytes per miss + 16 per region",
					s, loads, loads*int64(len(tail)), loads*baseN)
			}
			return
		default:
		}
		cur, curPer := ws.Stats(), ws.Base().ShardStats()
		if backwards(prev, cur) {
			t.Fatalf("Stats went backwards: %+v then %+v", prev, cur)
		}
		for i := range curPer {
			if backwards(prevPer[i], curPer[i]) {
				t.Fatalf("segment %d stats went backwards: %+v then %+v", i, prevPer[i], curPer[i])
			}
		}
		prev, prevPer = cur, curPer
	}
}
