package masksearch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"masksearch/internal/store"
)

// The fault-injection property test proves the durability contract:
// for every filesystem operation the ingest workload performs, crash
// the process at exactly that operation (under three page-cache
// survival policies), reopen the database through the production
// recovery path, and assert that (1) every acknowledged append is
// present with byte-identical pixels, (2) the recovered masks are a
// contiguous batch-aligned prefix of the workload, (3) a query suite
// returns byte-identical results to a reference database built from
// exactly the recovered masks, and (4) the reopened database accepts
// new appends.

// faultSpec keeps the per-crash-point work tiny: scanning every op
// index re-runs the workload O(ops) times.
func faultSpec() DatasetSpec {
	return DatasetSpec{Name: "fault", Images: 6, Models: 1, W: 16, H: 16, Seed: 11}
}

// faultWorkloadMasks is the flattened, deterministic sequence of masks
// the workload appends, in append order. Batch boundaries: 2 + 3 + 2.
func faultWorkloadMasks(w, h int) [][]AppendMask {
	var batches [][]AppendMask
	k := 0
	for _, n := range []int{2, 3, 2} {
		batch := make([]AppendMask, n)
		for i := range batch {
			pix := make([]byte, w*h)
			for j := range pix {
				pix[j] = byte(37 + 13*k + j%17)
			}
			batch[i] = AppendMask{
				ImageID: int64(8000 + k),
				ModelID: 1,
				Label:   k % 3, Pred: k % 2,
				Object: Rect{X0: 1, Y0: 1, X1: w - 2, Y1: h - 2},
				Pixels: pix,
			}
			k++
		}
		batches = append(batches, batch)
	}
	return batches
}

// runFaultWorkload opens dir through fsys and executes the fixed
// workload — append, append, compact, append — ignoring injected
// failures (a real process would die at the crash; here each later
// step simply errors). It returns the ids acknowledged before the
// crash and the masks they correspond to.
func runFaultWorkload(dir string, fsys store.FS) (acked []int64, ackedMasks []AppendMask) {
	batches := faultWorkloadMasks(16, 16)
	db, err := openWith(dir, Options{PersistIndexOnClose: false}, fsys)
	if err != nil {
		return nil, nil
	}
	defer db.Close()
	ctx := context.Background()
	for bi, batch := range batches {
		if bi == 2 {
			db.Compact(ctx)
		}
		ids, err := db.Append(ctx, batch)
		if err == nil {
			acked = append(acked, ids...)
			ackedMasks = append(ackedMasks, batch...)
		}
	}
	return acked, ackedMasks
}

// faultQuerySuite runs the comparison queries. The suite mixes a
// metadata filter, two CP filters and a ranking so both the index path
// and the verification path execute over recovered masks.
var faultQuerySuite = []string{
	`SELECT mask_id FROM masks WHERE model_id = 1`,
	`SELECT mask_id FROM masks WHERE CP(mask, object, 0.3, 1.0) > 20`,
	`SELECT mask_id FROM masks WHERE CP(mask, full, 0.0, 0.5) > 64`,
	`SELECT mask_id FROM masks ORDER BY CP(mask, full, 0.2, 1.0) DESC LIMIT 5`,
}

func runSuite(t *testing.T, db *DB) []*Result {
	t.Helper()
	out := make([]*Result, len(faultQuerySuite))
	for i, q := range faultQuerySuite {
		res, err := db.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("suite query %q: %v", q, err)
		}
		out[i] = res
	}
	return out
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		defer out.Close()
		_, err = io.Copy(out, in)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFaultInjectionDurability(t *testing.T) {
	for _, shards := range []int{1, 2} {
		name := map[int]string{1: "single", 2: "sharded"}[shards]
		t.Run(name, func(t *testing.T) { faultInjectionSweep(t, shards) })
	}
}

// faultInjectionSweep runs the full crash-point × keep-policy matrix
// over one storage layout (compaction commits differently on each).
func faultInjectionSweep(t *testing.T, shards int) {
	pristine := t.TempDir()
	if err := GenerateShardedDatasetCodec(pristine, faultSpec(), shards, CodecRaw); err != nil {
		t.Fatal(err)
	}
	baseMasks := faultSpec().NumMasks()
	allBatches := faultWorkloadMasks(16, 16)
	var flat []AppendMask
	for _, b := range allBatches {
		flat = append(flat, b...)
	}

	// Clean run: learn the op count (and check the workload itself).
	cleanDir := t.TempDir()
	copyTree(t, pristine, cleanDir)
	ffClean := store.NewFaultFS(store.KeepAll)
	acked, _ := runFaultWorkload(cleanDir, ffClean)
	if len(acked) != len(flat) {
		t.Fatalf("clean workload acked %d masks, want %d", len(acked), len(flat))
	}
	nOps := ffClean.Ops()
	if nOps < 10 {
		t.Fatalf("workload consumed only %d fs ops — fault coverage would be trivial", nOps)
	}
	t.Logf("workload spans %d fs operations", nOps)

	policies := []store.KeepPolicy{store.KeepNone, store.KeepHalf, store.KeepAll}
	for _, pol := range policies {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			for crashAt := 0; crashAt < nOps; crashAt++ {
				dir := filepath.Join(t.TempDir(), fmt.Sprintf("crash-%03d", crashAt))
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				copyTree(t, pristine, dir)
				ff := store.NewFaultFS(pol)
				ff.SetCrashAt(crashAt)
				acked, ackedMasks := runFaultWorkload(dir, ff)
				if !ff.Crashed() {
					t.Fatalf("crashAt=%d: workload finished without hitting the crash point (%d ops)", crashAt, ff.Ops())
				}

				// Reopen through the production recovery path.
				db, err := OpenWith(dir, Options{PersistIndexOnClose: false})
				if err != nil {
					t.Fatalf("crashAt=%d: reopen after crash: %v", crashAt, err)
				}
				entries := db.Entries()
				recovered := len(entries) - baseMasks
				if recovered < 0 {
					t.Fatalf("crashAt=%d: recovered catalog smaller than the base dataset (%d rows)", crashAt, len(entries))
				}

				// (1) acknowledged ⇒ durable, byte-identical.
				if recovered < len(acked) {
					t.Fatalf("crashAt=%d: acked %d masks but only %d recovered", crashAt, len(acked), recovered)
				}
				for i, id := range acked {
					m, err := db.LoadMask(id)
					if err != nil {
						t.Fatalf("crashAt=%d: load acked mask %d: %v", crashAt, id, err)
					}
					if !bytes.Equal(m.Bytes, ackedMasks[i].Pixels) {
						t.Fatalf("crashAt=%d: acked mask %d pixels differ after recovery", crashAt, id)
					}
				}

				// (2) recovery is a batch-aligned prefix of the workload:
				// an unacknowledged batch may survive (crash after fsync,
				// before the ack returned) but never partially.
				validPrefix := false
				for n := 0; n <= len(allBatches); n++ {
					k := 0
					for _, b := range allBatches[:n] {
						k += len(b)
					}
					if recovered == k {
						validPrefix = true
					}
				}
				if !validPrefix {
					t.Fatalf("crashAt=%d: recovered %d appended masks — not a batch boundary of %v", crashAt, recovered, []int{2, 3, 2})
				}
				for i := 0; i < recovered; i++ {
					e := entries[baseMasks+i]
					if e.MaskID != int64(baseMasks+i+1) || e.ImageID != flat[i].ImageID {
						t.Fatalf("crashAt=%d: recovered row %d is {id %d, image %d}, want {id %d, image %d}",
							crashAt, i, e.MaskID, e.ImageID, baseMasks+i+1, flat[i].ImageID)
					}
				}

				// (3) query equivalence against a reference DB built from
				// exactly the recovered masks, with no crash involved.
				refDir := filepath.Join(t.TempDir(), "ref")
				if err := os.MkdirAll(refDir, 0o755); err != nil {
					t.Fatal(err)
				}
				copyTree(t, pristine, refDir)
				refDB, err := OpenWith(refDir, Options{PersistIndexOnClose: false})
				if err != nil {
					t.Fatal(err)
				}
				if recovered > 0 {
					if _, err := refDB.Append(context.Background(), flat[:recovered]); err != nil {
						t.Fatal(err)
					}
				}
				got := runSuite(t, db)
				want := runSuite(t, refDB)
				for qi := range faultQuerySuite {
					if !reflect.DeepEqual(got[qi].IDs, want[qi].IDs) || !reflect.DeepEqual(got[qi].Ranked, want[qi].Ranked) {
						t.Fatalf("crashAt=%d policy=%v: query %q diverges from reference:\n got %v %v\nwant %v %v",
							crashAt, pol, faultQuerySuite[qi], got[qi].IDs, got[qi].Ranked, want[qi].IDs, want[qi].Ranked)
					}
				}
				refDB.Close()

				// (4) the recovered database accepts new appends.
				post := faultWorkloadMasks(16, 16)[0]
				ids, err := db.Append(context.Background(), post)
				if err != nil {
					t.Fatalf("crashAt=%d: append after recovery: %v", crashAt, err)
				}
				if ids[0] != int64(len(entries)+1) {
					t.Fatalf("crashAt=%d: post-recovery ids %v, want to start at %d", crashAt, ids, len(entries)+1)
				}
				db.Close()
			}
		})
	}
}

// TestFaultInjectionTransientError checks the no-crash failure path: an
// injected write error fails the append without poisoning the store,
// and the ids skipped by the failed batch are reassigned.
func TestFaultInjectionTransientError(t *testing.T) {
	dir := t.TempDir()
	if err := GenerateDataset(dir, faultSpec()); err != nil {
		t.Fatal(err)
	}
	ff := store.NewFaultFS(store.KeepAll)
	db, err := openWith(dir, Options{PersistIndexOnClose: false}, ff)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	batches := faultWorkloadMasks(16, 16)
	if _, err := db.Append(context.Background(), batches[0]); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("transient io error")
	ff.SetFailAt(ff.Ops(), boom) // next op is the batch's WAL write
	if _, err := db.Append(context.Background(), batches[1]); !errors.Is(err, boom) {
		t.Fatalf("append under injected write error: %v, want %v", err, boom)
	}
	ids, err := db.Append(context.Background(), batches[1])
	if err != nil {
		t.Fatal(err)
	}
	wantFirst := int64(faultSpec().NumMasks() + len(batches[0]) + 1)
	if ids[0] != wantFirst {
		t.Fatalf("retry ids %v, want to start at %d", ids, wantFirst)
	}
}
