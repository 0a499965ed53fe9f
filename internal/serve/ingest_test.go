package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"masksearch"
	"masksearch/internal/store"
)

// wireMasks builds n valid /ingest mask payloads for the test server's
// mask dimensions, all tagged with one image id.
func wireMasks(t *testing.T, db interface{ MaskDims() (int, int) }, n int, imageID int64) []map[string]any {
	t.Helper()
	w, h := db.MaskDims()
	masks := make([]map[string]any, n)
	for i := range masks {
		pix := make([]byte, w*h)
		for j := range pix {
			pix[j] = byte(i + j%13)
		}
		masks[i] = map[string]any{
			"image_id": imageID,
			"model_id": 1,
			"object":   map[string]int{"x0": 1, "y0": 1, "x1": w / 2, "y1": h / 2},
			"pixels":   pix, // encoding/json base64-encodes []byte
		}
	}
	return masks
}

func TestIngestEndpoint(t *testing.T) {
	_, db, url := newTestServer(t, Config{})
	base := len(db.Entries())

	var out struct {
		IDs   []int64 `json:"ids"`
		Count int     `json:"count"`
	}
	status, raw := post(t, url+"/ingest", map[string]any{"masks": wireMasks(t, db, 3, 7777)}, &out)
	if status != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", status, raw)
	}
	if out.Count != 3 || len(out.IDs) != 3 || out.IDs[0] != int64(base+1) {
		t.Fatalf("ingest response %+v, want 3 ids from %d", out, base+1)
	}

	// The appended masks answer queries on the very next request.
	var qr struct {
		IDs []int64 `json:"ids"`
	}
	status, raw = post(t, url+"/query", map[string]any{"sql": `SELECT mask_id FROM masks WHERE image_id = 7777`}, &qr)
	if status != http.StatusOK {
		t.Fatalf("query after ingest: status %d: %s", status, raw)
	}
	if len(qr.IDs) != 3 {
		t.Fatalf("query after ingest returned %v, want the 3 appended ids", qr.IDs)
	}

	// Compact folds them into the base layout.
	var cr struct {
		Moved int `json:"moved"`
	}
	status, raw = post(t, url+"/compact", map[string]any{}, &cr)
	if status != http.StatusOK {
		t.Fatalf("compact: status %d: %s", status, raw)
	}
	if cr.Moved != 3 {
		t.Fatalf("compact moved %d, want 3", cr.Moved)
	}
	if loc := db.MaskLocation(out.IDs[0]); loc != "base" {
		t.Fatalf("mask %d location %q after /compact", out.IDs[0], loc)
	}
}

func TestIngestValidation(t *testing.T) {
	_, db, url := newTestServer(t, Config{})

	// Empty batch.
	if status, _ := post(t, url+"/ingest", map[string]any{"masks": []any{}}, nil); status != http.StatusBadRequest {
		t.Fatalf("empty ingest: status %d, want 400", status)
	}
	// Wrong pixel length is rejected before anything touches the WAL.
	masks := wireMasks(t, db, 1, 1)
	masks[0]["pixels"] = []byte{1, 2, 3}
	status, raw := post(t, url+"/ingest", map[string]any{"masks": masks}, nil)
	if status != http.StatusBadRequest || !strings.Contains(raw, "pixels") {
		t.Fatalf("short pixels: status %d body %s, want 400 mentioning pixels", status, raw)
	}
	if st := db.Stats().Ingest; st.AppendedMasks != 0 {
		t.Fatalf("rejected ingests still appended masks: %+v", st)
	}
}

func TestIngestMetricsAndHealthz(t *testing.T) {
	_, db, url := newTestServer(t, Config{})
	if status, raw := post(t, url+"/ingest", map[string]any{"masks": wireMasks(t, db, 2, 5555)}, nil); status != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", status, raw)
	}

	var health struct {
		Masks       int `json:"masks"`
		MaskW       int `json:"mask_w"`
		MaskH       int `json:"mask_h"`
		WALSegments int `json:"wal_segments"`
		TailMasks   int `json:"tail_masks"`
	}
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	w, h := db.MaskDims()
	if health.MaskW != w || health.MaskH != h || health.Masks != len(db.Entries()) {
		t.Fatalf("healthz %+v disagrees with DB (%d masks, %dx%d)", health, len(db.Entries()), w, h)
	}
	if health.TailMasks != 2 || health.WALSegments != 1 {
		t.Fatalf("healthz WAL fields %+v, want 2 tail masks in 1 segment", health)
	}

	metrics := fetchMetrics(t, url)
	for name, want := range map[string]float64{
		"msserve.ingest.Requests":      1,
		"msserve.ingest.MasksIn":       2,
		"msserve.ingest.AppendedMasks": 2,
		"msserve.ingest.TailMasks":     2,
		"msserve.ingest.WALSegments":   1,
	} {
		m, ok := metrics[name]
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if m.Value != want {
			t.Errorf("metric %s = %v, want %v", name, m.Value, want)
		}
	}
}

// TestIngestDrainsOnClose proves the shutdown contract: an in-flight
// append admitted before Close finishes durably, and appends arriving
// after Close fail with 503.
func TestIngestDrainsOnClose(t *testing.T) {
	_, db, url := newTestServer(t, Config{})
	if status, raw := post(t, url+"/ingest", map[string]any{"masks": wireMasks(t, db, 1, 42)}, nil); status != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", status, raw)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	status, _ := post(t, url+"/ingest", map[string]any{"masks": wireMasks(t, db, 1, 43)}, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("ingest after close: status %d, want 503", status)
	}
	if _, err := db.Compact(context.Background()); err == nil {
		t.Fatal("compact after close succeeded")
	}
}

// TestIngestIndexEvery pins the every-N-batches index checkpoint: with
// IndexEvery=2, the first acknowledged batch leaves no chi.idx, the
// second writes one — so a crash between compactions loses at most
// IndexEvery batches of index work, instead of all of it.
func TestIngestIndexEvery(t *testing.T) {
	dir := t.TempDir()
	spec := store.TinySpec()
	spec.Images = 8
	if err := store.Generate(dir, spec, 1, store.CodecRaw); err != nil {
		t.Fatal(err)
	}
	db, err := masksearch.OpenWith(dir, masksearch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv := New(db, Config{IndexEvery: 2})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	gob := filepath.Join(dir, store.IndexFileName)
	ingest := func(imageID int64) {
		t.Helper()
		status, raw := post(t, ts.URL+"/ingest", map[string]any{"masks": wireMasks(t, db, 2, imageID)}, nil)
		if status != http.StatusOK {
			t.Fatalf("ingest: status %d: %s", status, raw)
		}
	}

	ingest(9001)
	if _, err := os.Stat(gob); err == nil {
		t.Fatal("chi.idx exists after 1 batch with IndexEvery=2")
	}
	if n := srv.c.idxCheckpoints.Load(); n != 0 {
		t.Fatalf("checkpoint counter %d after 1 batch, want 0", n)
	}
	ingest(9002)
	if _, err := os.Stat(gob); err != nil {
		t.Fatalf("no chi.idx after 2 batches with IndexEvery=2: %v", err)
	}
	if n := srv.c.idxCheckpoints.Load(); n != 1 {
		t.Fatalf("checkpoint counter %d after 2 batches, want 1", n)
	}
}
