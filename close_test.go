package masksearch

import (
	"context"
	"errors"
	"testing"
	"time"
)

// openCloseDB opens a small database for close-guard tests.
func openCloseDB(t *testing.T, opts Options) *DB {
	t.Helper()
	dir := t.TempDir()
	spec := TinyDataset()
	spec.Images = 16
	if err := GenerateDataset(dir, spec); err != nil {
		t.Fatal(err)
	}
	db, err := OpenWith(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestCloseRejectsNewOperations pins the ErrClosed contract: every
// store-touching entry point started after Close fails fast and
// deterministically instead of racing the store teardown.
func TestCloseRejectsNewOperations(t *testing.T) {
	db := openCloseDB(t, Options{PersistIndexOnClose: false})
	const q = `SELECT mask_id FROM masks WHERE CP(mask, object, 0.8, 1.0) > 20`
	stmt, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("repeated Close: %v (want nil)", err)
	}
	ctx := context.Background()
	if _, err := db.Query(ctx, q); !errors.Is(err, ErrClosed) {
		t.Errorf("Query after Close: %v, want ErrClosed", err)
	}
	if _, err := stmt.Query(ctx); !errors.Is(err, ErrClosed) {
		t.Errorf("Stmt.Query after Close: %v, want ErrClosed", err)
	}
	if _, err := db.QueryBatch(ctx, []string{q}); !errors.Is(err, ErrClosed) {
		t.Errorf("QueryBatch after Close: %v, want ErrClosed", err)
	}
	if _, err := stmt.QueryBatch(ctx, [][]any{nil}); !errors.Is(err, ErrClosed) {
		t.Errorf("Stmt.QueryBatch after Close: %v, want ErrClosed", err)
	}
	if _, err := db.LoadMask(1); !errors.Is(err, ErrClosed) {
		t.Errorf("LoadMask after Close: %v, want ErrClosed", err)
	}
	var rowsErr error
	for _, err := range db.Rows(ctx, q) {
		rowsErr = err
		break
	}
	if !errors.Is(rowsErr, ErrClosed) {
		t.Errorf("Rows after Close: %v, want ErrClosed", rowsErr)
	}
}

// TestCloseDrainsInFlightQueries pins the draining contract: Close
// blocks until a query that was already executing finishes (here a
// Rows iteration paused mid-stream), and a Query issued while Close is
// draining neither races the teardown nor hangs — it returns ErrClosed
// once the drain completes.
func TestCloseDrainsInFlightQueries(t *testing.T) {
	db := openCloseDB(t, Options{PersistIndexOnClose: false})
	const q = `SELECT mask_id FROM masks WHERE CP(mask, full, 0.0, 1.0) > 0`

	inFlight := make(chan struct{})
	resume := make(chan struct{})
	streamDone := make(chan error, 1)
	go func() {
		first := true
		var seen int
		for _, err := range db.Rows(context.Background(), q) {
			if err != nil {
				streamDone <- err
				return
			}
			seen++
			if first {
				first = false
				close(inFlight)
				<-resume // hold the stream (and the close guard) open
			}
		}
		if seen == 0 {
			streamDone <- errors.New("stream yielded no rows")
			return
		}
		streamDone <- nil
	}()
	<-inFlight

	closeDone := make(chan error, 1)
	go func() { closeDone <- db.Close() }()
	select {
	case err := <-closeDone:
		t.Fatalf("Close returned %v while a stream was still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	// A query arriving mid-drain must not slip past the pending Close.
	lateDone := make(chan error, 1)
	go func() {
		_, err := db.Query(context.Background(), q)
		lateDone <- err
	}()
	select {
	case err := <-lateDone:
		t.Fatalf("late Query returned %v before the drain finished", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(resume)
	if err := <-streamDone; err != nil {
		t.Fatalf("in-flight stream failed: %v", err)
	}
	if err := <-closeDone; err != nil {
		t.Fatalf("Close after drain: %v", err)
	}
	if err := <-lateDone; !errors.Is(err, ErrClosed) {
		t.Fatalf("late Query: %v, want ErrClosed", err)
	}
}

// TestLentMaskOutlivesClose pins the view-lifetime rule of DB.LoadMask:
// a lent mask stays readable after Close, its release after Close is
// safe (and is what finally unmaps the pixel file), and Close stays
// idempotent throughout — under each cache setting, since a cached mask
// is a view too.
func TestLentMaskOutlivesClose(t *testing.T) {
	for _, cache := range []int64{CacheDisabled, 4096, CacheUnbounded} {
		db := openCloseDB(t, Options{CacheBytes: cache})
		a, err := db.LoadMask(3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := db.LoadMask(9)
		if err != nil {
			t.Fatal(err)
		}
		wantA, wantB := append([]uint8(nil), a.Bytes...), append([]uint8(nil), b.Bytes...)
		if err := db.Close(); err != nil {
			t.Fatalf("cache %d: Close with lent masks: %v", cache, err)
		}
		if string(a.Bytes) != string(wantA) || string(b.Bytes) != string(wantB) {
			t.Fatalf("cache %d: lent masks changed across Close", cache)
		}
		db.ReleaseMask(a)
		if string(b.Bytes) != string(wantB) {
			t.Fatalf("cache %d: releasing one lent mask after Close invalidated the other", cache)
		}
		db.ReleaseMask(b)
		db.ReleaseMask(nil)
		if err := db.Close(); err != nil {
			t.Fatalf("cache %d: second Close: %v (want nil)", cache, err)
		}
	}
}
