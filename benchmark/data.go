package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"masksearch"
	"masksearch/internal/store"
)

// dataset is one on-disk layout of a synthetic dataset.
type dataset struct {
	dir    string // directory name under the data dir
	spec   masksearch.DatasetSpec
	codec  string
	shards int
	// index persists a full chi.gob beside the data at generation time:
	// what a shard node (msshard) loads at start instead of building.
	index bool
}

// marker is written into a dataset directory after a complete
// generation; a directory is reused only when its marker equals the
// wanted one, so a changed spec, layout or generator regenerates.
type marker struct {
	Spec     masksearch.DatasetSpec `json:"spec"`
	Codec    string                 `json:"codec"`
	Shards   int                    `json:"shards"`
	Index    bool                   `json:"index"`
	StoreGen int                    `json:"store_gen_version"`
}

const markerFile = "benchmark-dataset.json"

func (d dataset) marker() marker {
	return marker{Spec: d.spec, Codec: d.codec, Shards: d.shards, Index: d.index, StoreGen: store.GenVersion}
}

// String is the dataset's line in the fingerprint.
func (d dataset) String() string {
	codec := d.codec
	if codec == "" {
		codec = "raw"
	}
	perImage := d.spec.Models
	if d.spec.HumanAttention {
		perImage++
	}
	return fmt.Sprintf("%s(%d masks %dx%d seed=%d codec=%s shards=%d gen=%d)",
		d.dir, d.spec.Images*perImage, d.spec.W, d.spec.H, d.spec.Seed, codec, d.shards, store.GenVersion)
}

// ensure generates the dataset under dataDir unless a matching one is
// already there, and returns its directory and the seconds generation
// took (0 when reused).
func (d dataset) ensure(dataDir string) (string, float64, error) {
	dir := filepath.Join(dataDir, d.dir)
	want, err := json.Marshal(d.marker())
	if err != nil {
		return "", 0, err
	}
	if have, err := os.ReadFile(filepath.Join(dir, markerFile)); err == nil && string(have) == string(want) {
		return dir, 0, nil
	}
	start := time.Now()
	if err := os.RemoveAll(dir); err != nil {
		return "", 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	if err := masksearch.GenerateShardedDatasetCodec(dir, d.spec, d.shards, d.codec); err != nil {
		return "", 0, fmt.Errorf("generate %s: %w", d.dir, err)
	}
	if d.index {
		db, err := masksearch.OpenWith(dir, masksearch.Options{EagerIndex: true, PersistIndexOnClose: true})
		if err != nil {
			return "", 0, fmt.Errorf("index %s: %w", d.dir, err)
		}
		if err := db.Close(); err != nil {
			return "", 0, fmt.Errorf("index %s: %w", d.dir, err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, markerFile), want, 0o644); err != nil {
		return "", 0, err
	}
	return dir, time.Since(start).Seconds(), nil
}

// scratchCopy copies a dataset directory to a fresh directory under
// dataDir for a workload that writes to it, returning the copy and a
// function that removes it.
func scratchCopy(dataDir, src, name string) (string, func(), error) {
	dst, err := os.MkdirTemp(dataDir, name+"-*")
	if err != nil {
		return "", nil, err
	}
	if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
		os.RemoveAll(dst)
		return "", nil, err
	}
	return dst, func() { os.RemoveAll(dst) }, nil
}
