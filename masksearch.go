// Package masksearch is the public facade of the MaskSearch engine, a
// reproduction of the mask-querying system of conf_icde_HeZDRB25. It
// answers CP(mask, region, lo, hi) queries — counts of mask pixels in
// a region whose value falls in a range — over large collections of
// image masks (saliency maps, attention maps, segmentations) with a
// filter–verification pipeline over a Cumulative Histogram Index.
//
// Typical use:
//
//	spec := masksearch.TinyDataset()
//	if err := masksearch.GenerateDataset(dir, spec); err != nil { ... }
//	db, err := masksearch.Open(dir)
//	res, err := db.Query(ctx, `SELECT mask_id FROM masks
//	    WHERE CP(mask, object, 0.8, 1.0) > 200 AND model_id = 1`)
//
// The cmd/ tools msgen, msquery, msinspect and msserve are thin shells
// over this package.
package masksearch

import (
	"masksearch/internal/core"
	"masksearch/internal/store"
)

// Mask is a dense 2-D array of pixel values in [0, 1].
type Mask = core.Mask

// Rect is a half-open pixel rectangle [X0, X1) x [Y0, Y1).
type Rect = core.Rect

// ValueRange selects pixel values in [Lo, Hi); Hi >= 1 closes the top
// so fully-saturated pixels are included.
type ValueRange = core.ValueRange

// CatalogEntry is the metadata row of one stored mask.
type CatalogEntry = store.Entry

// ReadStats is the store's traffic accounting since open: charged
// loads and bytes plus the mask cache's hit/miss/evicted counters (see
// Options.CacheBytes).
type ReadStats = store.ReadStats

// IngestStats is the online ingestion path's accounting: acknowledged
// appends, WAL replay and footprint, compactions (see DB.Append).
type IngestStats = store.IngestStats

// Scored is one ranked query result.
type Scored = core.Scored

// CP computes the exact count of pixels of m inside roi whose value
// falls in vr — the paper's core query primitive.
func CP(m *Mask, roi Rect, vr ValueRange) int64 {
	return core.ExactCP(m, roi, vr)
}

// DatasetSpec describes a synthetic mask dataset for GenerateDataset.
type DatasetSpec = store.Spec

// GenerateDataset writes a complete mask database directory for spec:
// one segment, raw pixels.
func GenerateDataset(dir string, spec DatasetSpec) error {
	return store.Generate(dir, spec, 1, CodecRaw)
}

// Storage codecs for GenerateShardedDatasetCodec.
// Open detects the codec from the manifest; query results are
// byte-identical across codecs.
const (
	// CodecRaw stores masks as dense uint8 rows (masks.bin).
	CodecRaw = store.CodecRaw
	// CodecRLE stores masks run-length encoded (masks.rle + offset
	// catalog); the hot kernels compute directly on the runs.
	CodecRLE = store.CodecRLE
)

// GenerateShardedDatasetCodec writes the same logical dataset as
// GenerateDataset split across the given number of storage segments
// (shard-000/ … each with its own pixel file, catalog slice and
// manifest) in the given codec (CodecRaw or CodecRLE). Catalog rows,
// mask ids and pixels are identical under every shard count and codec;
// only the storage layout changes. Open reads either layout, giving
// each segment its own cache arena and read stats.
func GenerateShardedDatasetCodec(dir string, spec DatasetSpec, shards int, codec string) error {
	return store.Generate(dir, spec, shards, codec)
}

// WILDSSim is the scaled stand-in for the paper's WILDS dataset:
// 1,500 images with two model saliency maps plus one human attention
// map each, at 128x128.
func WILDSSim() DatasetSpec { return store.WildsSimSpec() }

// ImageNetSim is the scaled stand-in for the paper's ImageNet dataset:
// 6,000 images with one saliency map each, at 64x64.
func ImageNetSim() DatasetSpec { return store.ImageNetSimSpec() }

// TinyDataset is a toy dataset (64 images, 32x32) for demos and tests.
func TinyDataset() DatasetSpec { return store.TinySpec() }
