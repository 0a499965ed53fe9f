package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"masksearch/internal/core"
)

// TestLoadIndex covers what the facade and msshard find on disk: no
// file, the arena file, a file built under another config, and a file
// with a malformed entry. Only the last two are discarded, each with a
// reason naming the file, for an empty index under the asked config.
func TestLoadIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	want := core.NewMemoryIndex(core.Config{CellW: 4, CellH: 4, Edges: core.DefaultEdges(10)})
	for id := int64(1); id <= 10; id++ {
		m := core.NewByteMask(16, 16)
		rng.Read(m.Bytes)
		want.Observe(id, m)
	}
	cfg := want.Config()
	var buf bytes.Buffer
	if err := want.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// 16x16 masks under 4x4 cells and 10 edges: 160 counts a slot. After
	// the header (120 bytes) and page 0's bitmap (128), slot 2 starts
	// mask 3.
	bad := bytes.Clone(good)
	bad[120+128+2*160*4]++
	for _, tc := range []struct {
		name         string
		file         []byte
		cfg          core.Config
		read, reason string
		entries      int
	}{
		{name: "absent", cfg: cfg},
		{name: "arena", file: good, cfg: cfg, read: IndexFileName, entries: want.Len()},
		{name: "other config", file: good, cfg: core.Config{CellW: 8, CellH: 8, Edges: cfg.Edges}, read: IndexFileName, reason: "chi.idx: index built under"},
		{name: "malformed entry", file: bad, cfg: cfg, read: IndexFileName, reason: "chi.idx: core: read index: mask 3:"},
	} {
		dir := t.TempDir()
		if tc.file != nil {
			if err := os.WriteFile(filepath.Join(dir, IndexFileName), tc.file, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		ix, file, err := LoadIndex(dir, tc.cfg)
		if file != tc.read {
			t.Errorf("%s: read %q, want %q", tc.name, file, tc.read)
		}
		if tc.reason == "" && err != nil || tc.reason != "" && (err == nil || !strings.Contains(err.Error(), tc.reason)) {
			t.Errorf("%s: reason %v, want one naming %q", tc.name, err, tc.reason)
		}
		if norm, _ := tc.cfg.Normalize(); ix.Len() != tc.entries || ix.Config().Key() != norm.Key() {
			t.Errorf("%s: %d entries under %s, want %d under %s", tc.name, ix.Len(), ix.Config().Key(), tc.entries, norm.Key())
		}
		roi, vr := core.Rect{X0: 3, Y0: 3, X1: 13, Y1: 11}, core.ValueRange{Lo: 0.35, Hi: 1.0}
		for id := int64(1); id <= int64(tc.entries); id++ {
			got, _ := ix.ChiFor(id)
			exp, _ := want.ChiFor(id)
			if got == nil || got.CPBounds(roi, vr) != exp.CPBounds(roi, vr) {
				t.Errorf("%s: mask %d missing or with other bounds after the load", tc.name, id)
			}
		}
	}
}
