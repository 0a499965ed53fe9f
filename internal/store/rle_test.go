package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"masksearch/internal/core"
)

func appendFile(t *testing.T, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func truncateFile(t *testing.T, path string, n int64) {
	t.Helper()
	if err := os.Truncate(path, n); err != nil {
		t.Fatal(err)
	}
}

// corruptFileAt overwrites one byte at off with an invalid RLE control
// sequence starter (a repeat control with no room in any row).
func corruptFileAt(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{255}, off); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func containsStr(s, sub string) bool { return strings.Contains(s, sub) }

// genBothCodecs generates the same spec under the raw and rle codecs
// and returns the two directories.
func genBothCodecs(t *testing.T, spec Spec, shards int) (rawDir, rleDir string) {
	t.Helper()
	rawDir, rleDir = t.TempDir(), t.TempDir()
	if err := Generate(rawDir, spec, shards, CodecRaw); err != nil {
		t.Fatal(err)
	}
	if err := Generate(rleDir, spec, shards, CodecRLE); err != nil {
		t.Fatal(err)
	}
	return rawDir, rleDir
}

// TestRLELayoutEquivalence checks that the rle codec stores the exact
// same logical dataset as raw — every pixel of every mask — while Open
// detects it transparently.
func TestRLELayoutEquivalence(t *testing.T) {
	spec := Spec{Name: "t", Images: 10, Models: 2, W: 24, H: 20, Seed: 5, HumanAttention: true}
	for _, shards := range []int{1, 3} {
		rawDir, rleDir := genBothCodecs(t, spec, shards)
		rawSt, rawCat, err := OpenAny(rawDir)
		if err != nil {
			t.Fatal(err)
		}
		defer rawSt.Close()
		rleSt, rleCat, err := OpenAny(rleDir)
		if err != nil {
			t.Fatal(err)
		}
		defer rleSt.Close()
		if got, want := rleSt.Codec(), CodecRLE; got != want {
			t.Fatalf("shards=%d: codec %q, want %q", shards, got, want)
		}
		if rawSt.Codec() != CodecRaw {
			t.Fatalf("shards=%d: raw codec %q", shards, rawSt.Codec())
		}
		if rleSt.NumMasks() != rawSt.NumMasks() || rleCat.Len() != rawCat.Len() {
			t.Fatalf("shards=%d: mask counts differ", shards)
		}
		if rleSt.DataBytes() != rawSt.DataBytes() {
			t.Fatalf("shards=%d: logical DataBytes differ", shards)
		}
		if rleSt.StoredBytes() >= rawSt.StoredBytes() {
			t.Fatalf("shards=%d: rle stored %d bytes, raw %d — no compression", shards, rleSt.StoredBytes(), rawSt.StoredBytes())
		}
		// Whole-mask loads must charge the compressed size, not the
		// logical size.
		rawBefore, rleBefore := rawSt.Stats(), rleSt.Stats()
		for id := int64(1); id <= int64(rawSt.NumMasks()); id++ {
			rm, err := rawSt.LoadMask(id)
			if err != nil {
				t.Fatal(err)
			}
			cm, err := rleSt.LoadMask(id)
			if err != nil {
				t.Fatal(err)
			}
			if cm.RLE == nil || cm.Bytes != nil {
				t.Fatalf("mask %d: rle store served a non-compressed mask", id)
			}
			if !bytes.Equal(cm.Decoded().Bytes, rm.Bytes) {
				t.Fatalf("shards=%d mask %d: pixels differ between codecs", shards, id)
			}
			rawSt.ReleaseMask(rm)
			rleSt.ReleaseMask(cm)
		}
		rawRead, rleRead := rawSt.Stats().Sub(rawBefore).BytesRead, rleSt.Stats().Sub(rleBefore).BytesRead
		if rleRead >= rawRead {
			t.Fatalf("shards=%d: rle loads read %d bytes, raw %d", shards, rleRead, rawRead)
		}
	}
}

// TestRLECacheAccounting checks that the cache charges compressed
// bytes: the same budget holds more rle masks than raw masks, and a
// budget cut evicts down to it.
func TestRLECacheAccounting(t *testing.T) {
	spec := Spec{Name: "t", Images: 16, Models: 1, W: 32, H: 32, Seed: 6}
	_, rleDir := genBothCodecs(t, spec, 1)
	st, _, err := Open(rleDir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SetCacheBytes(-1)
	var masks []*core.Mask
	for id := int64(1); id <= 8; id++ {
		m, err := st.LoadMask(id)
		if err != nil {
			t.Fatal(err)
		}
		masks = append(masks, m)
	}
	resident := st.set.Load().segs[0].cache.residentBytes()
	if resident <= 0 || resident >= 8*int64(spec.W*spec.H) {
		t.Fatalf("resident %d bytes; want compressed accounting below %d", resident, 8*spec.W*spec.H)
	}
	for _, m := range masks {
		st.ReleaseMask(m)
	}
	// Hits must serve the identical compressed mask.
	before := st.Stats()
	m, err := st.LoadMask(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats().CacheHits != before.CacheHits+1 {
		t.Fatal("expected a cache hit on reload")
	}
	st.ReleaseMask(m)
	// Shrinking the budget to one compressed mask must evict the rest.
	st.set.Load().segs[0].cache.setBudget(resident / 8)
	if got := st.set.Load().segs[0].cache.residentBytes(); got > resident/8 {
		t.Fatalf("cache kept %d bytes after budget cut to %d", got, resident/8)
	}
}

// TestRLECompactAndRefuseOverLong ingests into an rle-codec database,
// compacts into the compressed layout, then appends to the top-level
// stream file and offset column what an older version's crashed
// in-place compaction left there: the ingest open refuses it, naming
// the offset column.
func TestRLECompactAndRefuseOverLong(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Name: "t", Images: 6, Models: 1, W: 16, H: 16, Seed: 7}
	if err := Generate(dir, spec, 1, CodecRLE); err != nil {
		t.Fatal(err)
	}
	ws, cat, err := OpenIngest(DirFS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	batch := ingestBatch(5, 16, 16, 40)
	ids, err := ws.Append(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ws.Compact(context.Background()); err != nil || n != 5 {
		t.Fatalf("compact: n=%d err=%v", n, err)
	}
	if got := ws.Codec(); got != CodecRLE {
		t.Fatalf("codec after compact: %q", got)
	}
	// Compacted masks must read back byte-identical through the base.
	for i, id := range ids {
		m, err := ws.LoadMask(id)
		if err != nil {
			t.Fatal(err)
		}
		if m.RLE == nil {
			t.Fatalf("mask %d not served from the compressed base after compact", id)
		}
		if !bytes.Equal(m.Decoded().Bytes, batch[i].Pix) {
			t.Fatalf("mask %d: pixels differ after rle compaction", id)
		}
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen cleanly: manifest, catalog, offsets all extended.
	ws2, cat2, err := OpenIngest(DirFS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if cat2.Len() != cat.Len() {
		t.Fatalf("catalog has %d rows after reopen, want %d", cat2.Len(), cat.Len())
	}
	man, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Codec != CodecRLE || man.NumMasks != spec.NumMasks()+5 {
		t.Fatalf("manifest after compact: codec=%q n=%d", man.Codec, man.NumMasks)
	}

	// Stream bytes and offsets appended past the manifest's extent.
	ws2.Close()
	appendFile(t, filepath.Join(dir, masksRLEFile), []byte("garbage-stream-bytes"))
	appendFile(t, filepath.Join(dir, masksRLEIndexFile), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	if _, _, err := OpenIngest(DirFS(), dir); err == nil || !strings.Contains(err.Error(), masksRLEIndexFile) {
		t.Fatalf("ingest open of an over-long offset column: err = %v", err)
	}
}

// TestRLEOpenRejectsCorruptLayout checks the fail-fast open paths.
func TestRLEOpenRejectsCorruptLayout(t *testing.T) {
	spec := Spec{Name: "t", Images: 4, Models: 1, W: 8, H: 8, Seed: 8}
	newDir := func() string {
		d := t.TempDir()
		if err := Generate(d, spec, 1, CodecRLE); err != nil {
			t.Fatal(err)
		}
		return d
	}
	// Truncated stream file.
	d := newDir()
	truncateFile(t, filepath.Join(d, masksRLEFile), 3)
	if _, _, err := Open(d); err == nil {
		t.Fatal("open accepted a truncated masks.rle")
	}
	// Truncated offset column.
	d = newDir()
	truncateFile(t, filepath.Join(d, masksRLEIndexFile), 8)
	if _, _, err := Open(d); err == nil {
		t.Fatal("open accepted a truncated offset column")
	}
	// Unknown codec in the manifest.
	d = newDir()
	man, err := LoadManifest(d)
	if err != nil {
		t.Fatal(err)
	}
	man.Codec = "zstd"
	if err := writeJSON(filepath.Join(d, manifestFile), man); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(d); err == nil {
		t.Fatal("open accepted an unknown codec")
	}
	// A corrupt stream body is caught at load time, not open time.
	d = newDir()
	st, _, err := Open(d)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	corruptFileAt(t, filepath.Join(d, masksRLEFile), 0)
	if _, err := st.LoadMask(1); err == nil {
		t.Fatal("load accepted a corrupt rle stream")
	}
}

// cutRLEMask shortens mask id's stream in a single-segment rle dataset
// by its last cut bytes, shifting every later offset down so the
// layout still passes Open's size checks: the damage is confined to
// one mask's byte range.
func cutRLEMask(t *testing.T, dir string, id int64, cut int) {
	t.Helper()
	stPath, idxPath := filepath.Join(dir, masksRLEFile), filepath.Join(dir, masksRLEIndexFile)
	data, err := os.ReadFile(stPath)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	end := int(binary.LittleEndian.Uint64(idx[8*id:]))
	data = append(data[:end-cut], data[end:]...)
	for i := int(id); i < len(idx)/8; i++ {
		binary.LittleEndian.PutUint64(idx[8*i:], binary.LittleEndian.Uint64(idx[8*i:])-uint64(cut))
	}
	if err := os.WriteFile(stPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(idxPath, idx, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRLECorruptMaskIsolated damages one mask's byte range — a flipped
// control byte, a truncated stream — and checks that, on a fresh open,
// the first LoadMask of that mask returns the wrapped "corrupt rle
// stream" error (never a panic, and again on the next attempt: a
// failed validation is not remembered as a pass), while every other
// mask still loads and validates.
func TestRLECorruptMaskIsolated(t *testing.T) {
	spec := Spec{Name: "t", Images: 6, Models: 1, W: 24, H: 20, Seed: 11}
	const bad = int64(3)
	damage := map[string]func(t *testing.T, dir string){
		"flipped control byte": func(t *testing.T, dir string) {
			idx, err := os.ReadFile(filepath.Join(dir, masksRLEIndexFile))
			if err != nil {
				t.Fatal(err)
			}
			corruptFileAt(t, filepath.Join(dir, masksRLEFile), int64(binary.LittleEndian.Uint64(idx[8*(bad-1):])))
		},
		"truncated stream": func(t *testing.T, dir string) { cutRLEMask(t, dir, bad, 2) },
	}
	for name, apply := range damage {
		dir := t.TempDir()
		if err := Generate(dir, spec, 1, CodecRLE); err != nil {
			t.Fatal(err)
		}
		apply(t, dir)
		st, _, err := Open(dir)
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		for attempt := 0; attempt < 2; attempt++ {
			m, err := st.LoadMask(bad)
			st.ReleaseMask(m)
			if err == nil || !containsStr(err.Error(), "corrupt rle stream") {
				t.Fatalf("%s: LoadMask attempt %d of the damaged mask: err = %v, want a corrupt rle stream error", name, attempt, err)
			}
		}
		for id := int64(1); id <= int64(st.NumMasks()); id++ {
			if id == bad {
				continue
			}
			m, err := st.LoadMask(id)
			if err != nil {
				t.Fatalf("%s: undamaged mask %d: %v", name, id, err)
			}
			if m.RowDir == nil {
				t.Fatalf("%s: mask %d served without its row directory", name, id)
			}
			st.ReleaseMask(m)
		}
		st.Close()
	}
}

// TestRLEValidateOnce checks the validate-once contract end to end on
// both layouts: the first load of a mask publishes its row directory,
// repeat loads serve the identical directory and stream from pooled
// buffers, the counters move exactly as they do with per-load
// validation (one MasksLoaded and the compressed size per load), and
// masks compacted in after Open get the same treatment.
func TestRLEValidateOnce(t *testing.T) {
	spec := Spec{Name: "t", Images: 12, Models: 1, W: 24, H: 20, Seed: 12}
	for _, shards := range []int{1, 3} {
		rawDir, rleDir := genBothCodecs(t, spec, shards)
		rawSt, _, err := OpenAny(rawDir)
		if err != nil {
			t.Fatal(err)
		}
		defer rawSt.Close()
		st, _, err := OpenAny(rleDir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		var wantBytes int64
		for pass := 0; pass < 3; pass++ {
			for id := int64(1); id <= int64(st.NumMasks()); id++ {
				ref, err := rawSt.LoadMask(id)
				if err != nil {
					t.Fatal(err)
				}
				m, err := st.LoadMask(id)
				if err != nil {
					t.Fatal(err)
				}
				if len(m.RowDir) != spec.H {
					t.Fatalf("shards=%d pass %d mask %d: row directory has %d entries, want %d", shards, pass, id, len(m.RowDir), spec.H)
				}
				if !bytes.Equal(m.Decoded().Bytes, ref.Bytes) {
					t.Fatalf("shards=%d pass %d mask %d: pixels differ from raw", shards, pass, id)
				}
				roi := core.Rect{X0: 5, Y0: 7, X1: 19, Y1: 16}
				vr := core.ValueRange{Lo: 0.3, Hi: 1}
				if got, want := core.ExactCP(m, roi, vr), core.ExactCP(ref, roi, vr); got != want {
					t.Fatalf("shards=%d pass %d mask %d: CP %d, raw says %d", shards, pass, id, got, want)
				}
				wantBytes += int64(len(m.RLE))
				rawSt.ReleaseMask(ref)
				st.ReleaseMask(m)
			}
		}
		got := st.Stats()
		if want := int64(3 * st.NumMasks()); got.MasksLoaded != want || got.BytesRead != wantBytes {
			t.Fatalf("shards=%d: MasksLoaded=%d BytesRead=%d, want %d and %d", shards, got.MasksLoaded, got.BytesRead, want, wantBytes)
		}
		if wantBytes != 3*st.StoredBytes() {
			t.Fatalf("shards=%d: three full passes read %d bytes, want 3 x StoredBytes = %d", shards, wantBytes, 3*st.StoredBytes())
		}
	}

	// Masks compacted into the base after Open extend the table.
	dir := t.TempDir()
	if err := Generate(dir, spec, 1, CodecRLE); err != nil {
		t.Fatal(err)
	}
	ws, _, err := OpenIngest(DirFS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	if m, err := ws.LoadMask(1); err != nil { // validate one base mask before the table grows
		t.Fatal(err)
	} else {
		ws.ReleaseMask(m)
	}
	for round := 0; round < 2; round++ {
		batch := ingestBatch(3, spec.W, spec.H, byte(50+round))
		ids, err := ws.Append(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ws.Compact(context.Background()); err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			for i, id := range append([]int64{1, int64(spec.NumMasks())}, ids...) {
				m, err := ws.LoadMask(id)
				if err != nil {
					t.Fatal(err)
				}
				if m.RLE == nil || len(m.RowDir) != spec.H {
					t.Fatalf("round %d pass %d mask %d: not served compressed with a row directory", round, pass, id)
				}
				if i >= 2 && !bytes.Equal(m.Decoded().Bytes, batch[i-2].Pix) {
					t.Fatalf("round %d pass %d mask %d: pixels differ after compaction", round, pass, id)
				}
				ws.ReleaseMask(m)
			}
		}
	}
}

// wildsLikeSpec is wilds-sim's mask shape and generator settings at a
// fraction of its mask count: per-mask properties (stream size, load
// cost) match the benchmark's dataset.
func wildsLikeSpec(images int) Spec {
	spec := WildsSimSpec()
	spec.Images = images
	return spec
}

// TestRLERowDirFootprint holds the row directory to its stated budget:
// at most 5 % of the stored bytes on wilds-sim masks.
func TestRLERowDirFootprint(t *testing.T) {
	dir := t.TempDir()
	if err := Generate(dir, wildsLikeSpec(40), 1, CodecRLE); err != nil {
		t.Fatal(err)
	}
	st, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var resident int64
	for _, g := range st.set.Load().segs {
		d := g.dirs
		resident += int64(4*len(d.state) + 4*len(d.rows))
	}
	if want := int64(st.NumMasks()) * int64(4*(st.h+1)); resident != want {
		t.Fatalf("row directories hold %d bytes, want %d (4*(h+1) per mask)", resident, want)
	}
	if share := float64(resident) / float64(st.StoredBytes()); share > 0.05 {
		t.Fatalf("row directories are %.2f%% of the %d stored bytes, budget 5%%", 100*share, st.StoredBytes())
	}
}

// TestRLELoadConcurrentFirstLoads races 8 goroutines through first
// loads of the same ids — directory publication, the losers' fallback
// and pool reuse all at once — and compares every CP to an oracle
// computed from decoded pixels. Run under -race.
func TestRLELoadConcurrentFirstLoads(t *testing.T) {
	spec := Spec{Name: "t", Images: 24, Models: 1, W: 40, H: 33, Seed: 13}
	rawDir, rleDir := genBothCodecs(t, spec, 1)
	rawSt, _, err := Open(rawDir)
	if err != nil {
		t.Fatal(err)
	}
	defer rawSt.Close()
	n := rawSt.NumMasks()
	roi := core.Rect{X0: 7, Y0: 9, X1: 31, Y1: 30}
	vr := core.ValueRange{Lo: 0.2, Hi: 0.9}
	want := make([]int64, n+1)
	for id := int64(1); id <= int64(n); id++ {
		m, err := rawSt.LoadMask(id)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = core.ExactCP(m, roi, vr)
		rawSt.ReleaseMask(m)
	}
	for round := 0; round < 5; round++ {
		st, _, err := Open(rleDir) // fresh store: every id is a first load again
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for pass := 0; pass < 3; pass++ {
					for id := int64(1); id <= int64(n); id++ {
						m, err := st.LoadMask(id)
						if err != nil {
							t.Errorf("mask %d: %v", id, err)
							return
						}
						if got := core.ExactCP(m, roi, vr); got != want[id] {
							t.Errorf("mask %d: CP %d, oracle %d", id, got, want[id])
						}
						st.ReleaseMask(m)
					}
				}
			}()
		}
		wg.Wait()
		st.Close()
	}
}

// TestRLELoadSteadyStateAllocs checks that, with the cache off, a
// load+release of an already-validated rle mask reuses a pooled mask
// and allocates nothing (one allocation of slack for a pool refill
// after a GC cycle).
func TestRLELoadSteadyStateAllocs(t *testing.T) {
	dir := t.TempDir()
	if err := Generate(dir, Spec{Name: "t", Images: 8, Models: 1, W: 32, H: 32, Seed: 14}, 1, CodecRLE); err != nil {
		t.Fatal(err)
	}
	st, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	id := int64(0)
	load := func() {
		id = id%int64(st.NumMasks()) + 1
		m, err := st.LoadMask(id)
		if err != nil {
			t.Fatal(err)
		}
		st.ReleaseMask(m)
	}
	for i := 0; i < st.NumMasks(); i++ {
		load() // first loads: validate and publish
	}
	if avg := testing.AllocsPerRun(200, load); avg > 1 {
		t.Fatalf("steady-state rle LoadMask+ReleaseMask allocates %.1f times per call, want <= 1", avg)
	}
}

// BenchmarkLoadMask is the store's load layer benchmark on wilds-sim
// shaped masks: with the cache off, a raw load, an rle load that is the
// mask's first since Open (the validating walk that records the row
// directory), and a repeat rle load; and a raw load through a cache
// holding a third of the dataset, which the shuffled cycle over every
// id makes a miss that evicts each time. Each also runs from GOMAXPROCS
// goroutines at once, which is how the engine's workers load.
func BenchmarkLoadMask(b *testing.B) {
	rawDir, rleDir := b.TempDir(), b.TempDir()
	spec := wildsLikeSpec(100)
	if err := Generate(rawDir, spec, 1, CodecRaw); err != nil {
		b.Fatal(err)
	}
	if err := Generate(rleDir, spec, 1, CodecRLE); err != nil {
		b.Fatal(err)
	}
	open := func(dir string) *Store {
		st, _, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	// The same shuffled id sequence for every variant.
	ids := rand.New(rand.NewSource(1)).Perm(spec.NumMasks())
	load := func(st *Store, k int) {
		m, err := st.LoadMask(int64(ids[k%len(ids)] + 1))
		if err != nil {
			b.Error(err)
			return
		}
		st.ReleaseMask(m)
	}
	// repeat times loads of masks already loaded once since Open.
	repeat := func(dir string, cache int64, parallel bool) func(b *testing.B) {
		return func(b *testing.B) {
			st := open(dir)
			defer st.Close()
			st.SetCacheBytes(cache)
			for k := range ids {
				load(st, k)
			}
			b.ResetTimer()
			if !parallel {
				for i := 0; i < b.N; i++ {
					load(st, i)
				}
				return
			}
			var starts atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				for k := int(starts.Add(1)) * 37; pb.Next(); k++ {
					load(st, k)
				}
			})
		}
	}
	// first times first-since-Open loads: a fresh store for each pass
	// over the ids, reopened off the clock. RunParallel cannot pause for
	// the reopen, so the parallel variant stripes each pass over
	// GOMAXPROCS goroutines itself.
	first := func(parallel bool) func(b *testing.B) {
		return func(b *testing.B) {
			workers := 1
			if parallel {
				workers = runtime.GOMAXPROCS(0)
			}
			for done := 0; done < b.N; done += len(ids) {
				b.StopTimer()
				st := open(rleDir)
				n := min(len(ids), b.N-done)
				b.StartTimer()
				var wg sync.WaitGroup
				for g := 0; g < workers; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for k := g; k < n; k += workers {
							load(st, k)
						}
					}(g)
				}
				wg.Wait()
				b.StopTimer()
				st.Close()
				b.StartTimer()
			}
		}
	}
	third := int64(spec.NumMasks()*spec.W*spec.H) / 3
	b.Run("raw", repeat(rawDir, 0, false))
	b.Run("raw/parallel", repeat(rawDir, 0, true))
	b.Run("raw-cached", repeat(rawDir, third, false))
	b.Run("raw-cached/parallel", repeat(rawDir, third, true))
	b.Run("rle-first", first(false))
	b.Run("rle-first/parallel", first(true))
	b.Run("rle-repeat", repeat(rleDir, 0, false))
	b.Run("rle-repeat/parallel", repeat(rleDir, 0, true))
}
