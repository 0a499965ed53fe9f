package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"masksearch/internal/core"
)

const (
	manifestFile      = "manifest.json"
	catalogBinFile    = "catalog.bin"
	masksFile         = "masks.bin"
	masksRLEFile      = "masks.rle"
	masksRLEIndexFile = "masks.rle.idx"
)

// Codec names a mask layout's on-disk pixel encoding (Manifest.Codec,
// msgen -codec). Raw is the fixed-stride layout: mask i occupies bytes
// [i*w*h, (i+1)*w*h) of masks.bin. RLE stores each mask's
// run-length-encoded stream (core.EncodeRLE) concatenated in
// masks.rle, with a per-mask offset/size column in masks.rle.idx:
// N+1 little-endian uint64 offsets where mask i's stream is
// [off[i], off[i+1]) and off[N] is the file size.
const (
	CodecRaw = ""
	CodecRLE = "rle"
)

// validCodec reports whether name is a known codec.
func validCodec(name string) bool { return name == CodecRaw || name == CodecRLE }

// GenVersion identifies the synthetic generator's output. Bump it when
// generated pixels or file layout change for the same Spec (it is
// recorded in the manifest so benchmark harnesses regenerate stale
// datasets instead of silently comparing against old pixels or opening
// an old layout).
//
// Version 2: background noise became 4-px-block structured (see
// renderBlob), making the synthetic masks representative of upsampled
// CAM/attention saliency and hence of real-world RLE compressibility.
//
// Version 3: the catalog is written as fixed-width catalog.bin rows
// instead of catalog.json.
//
// Version 4: the persisted CHI index is chi.idx, the index arena on
// disk, instead of a gob chi.gob.
const GenVersion = 4

// IndexFileName is where the DB facade persists a CHI index inside a
// database directory; Generate removes it, so a regenerated dataset can
// never be queried through a stale index.
const IndexFileName = "chi.idx"

// LoadIndex restores the CHI index persisted in dir's IndexFileName and
// returns it with the file's name, "" when there is none; an absent
// file leaves an empty index for cfg, which grows as queries observe
// masks. An earlier version's index file is not read: the index starts
// empty, as for a missing file. When the file cannot be read, is
// malformed or was built under another config, LoadIndex returns the
// empty index, the file's name and why it discarded the file.
func LoadIndex(dir string, cfg core.Config) (*core.MemoryIndex, string, error) {
	fresh := core.NewMemoryIndex(cfg)
	f, err := os.Open(filepath.Join(dir, IndexFileName))
	if errors.Is(err, fs.ErrNotExist) {
		return fresh, "", nil
	}
	ix := fresh
	if err == nil {
		ix, err = core.ReadMemoryIndex(f)
		f.Close()
	}
	if want := fresh.Config().Key(); err == nil && ix.Config().Key() != want {
		err = fmt.Errorf("index built under %s, not %s", ix.Config().Key(), want)
	}
	if err != nil {
		return fresh, IndexFileName, fmt.Errorf("%s: %w", IndexFileName, err)
	}
	return ix, IndexFileName, nil
}

// Spec describes a synthetic mask dataset. The generated saliency maps
// are Gaussian blobs over background noise: correctly-predicted masks
// attend to the labeled object box, mispredicted masks attend
// elsewhere, and "modified" masks carry a small saturated adversarial
// patch — giving the paper's query families (error analysis, human
// comparison, adversarial detection) real signal to find.
type Spec struct {
	Name   string `json:"name"`
	Images int    `json:"images"`
	Models int    `json:"models"`
	W      int    `json:"w"`
	H      int    `json:"h"`
	Seed   int64  `json:"seed"`
	// HumanAttention adds one human attention map per image
	// (ModelID 0, TypeHumanAttention).
	HumanAttention bool `json:"human_attention"`
	// Classes is the label alphabet size (default 10).
	Classes int `json:"classes"`
	// MispredictRate is the fraction of model masks whose prediction
	// is wrong (default 0.15; set negative for exactly none).
	MispredictRate float64 `json:"mispredict_rate"`
	// ModifiedRate is the fraction of model masks carrying an
	// adversarial patch (default 0.05; set negative for exactly none).
	ModifiedRate float64 `json:"modified_rate"`
}

func (s Spec) withDefaults() Spec {
	if s.Classes <= 0 {
		s.Classes = 10
	}
	if s.MispredictRate == 0 {
		s.MispredictRate = 0.15
	} else if s.MispredictRate < 0 {
		s.MispredictRate = 0
	}
	if s.ModifiedRate == 0 {
		s.ModifiedRate = 0.05
	} else if s.ModifiedRate < 0 {
		s.ModifiedRate = 0
	}
	if s.Models <= 0 {
		s.Models = 1
	}
	return s
}

// NumMasks returns the total number of masks the spec generates.
func (s Spec) NumMasks() int {
	s = s.withDefaults()
	n := s.Images * s.Models
	if s.HumanAttention {
		n += s.Images
	}
	return n
}

// WildsSimSpec is the scaled stand-in for the paper's WILDS dataset.
func WildsSimSpec() Spec {
	return Spec{Name: "wilds-sim", Images: 1500, Models: 2, W: 128, H: 128, Seed: 1, HumanAttention: true}
}

// ImageNetSimSpec is the scaled stand-in for the paper's ImageNet set.
func ImageNetSimSpec() Spec {
	return Spec{Name: "imagenet-sim", Images: 6000, Models: 1, W: 64, H: 64, Seed: 2}
}

// TinySpec is a toy dataset for demos and tests.
func TinySpec() Spec {
	return Spec{Name: "tiny", Images: 64, Models: 2, W: 32, H: 32, Seed: 3, HumanAttention: true}
}

// Generate writes a database directory for spec in the given codec
// (CodecRaw or CodecRLE), split into the given number of segments,
// replacing any previous dataset there. With shards <= 1 it writes one
// segment at the top level (manifest + catalog + pixel file). With
// more it splits the mask id space into contiguous, near-even ranges:
// shard-000/ … shard-(S-1)/ each hold their own pixel file, catalog
// slice and segment manifest, and the top-level manifest lists them.
// The logical dataset — catalog rows, mask ids and every pixel — is
// identical under every shard count and codec, so both are purely
// storage-layout choices.
func Generate(dir string, spec Spec, shards int, codec string) error {
	spec = spec.withDefaults()
	if !validCodec(codec) {
		return fmt.Errorf("store: unknown codec %q (want %q or %q)", codec, CodecRaw, CodecRLE)
	}
	if spec.Images <= 0 || spec.W <= 0 || spec.H <= 0 {
		return fmt.Errorf("store: invalid spec %+v", spec)
	}
	if spec.Name == "" {
		spec.Name = "custom"
	}
	n := spec.NumMasks()
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// A persisted index describes the previous dataset's pixels;
	// keeping it would silently corrupt query answers.
	if err := os.Remove(filepath.Join(dir, IndexFileName)); err != nil && !os.IsNotExist(err) {
		return err
	}
	// Likewise a leftover WAL: its segments continue the previous
	// dataset's id space and would replay foreign masks on open.
	if err := os.RemoveAll(filepath.Join(dir, walDirName)); err != nil {
		return err
	}
	// Remove leftovers of the other layout so a regenerated directory
	// never carries both a top-level masks.bin and shard segments.
	if stale, err := filepath.Glob(filepath.Join(dir, "shard-*")); err == nil {
		for _, d := range stale {
			if err := os.RemoveAll(d); err != nil {
				return err
			}
		}
	}
	if shards > 1 {
		for _, f := range []string{masksFile, masksRLEFile, masksRLEIndexFile, catalogBinFile} {
			if err := os.Remove(filepath.Join(dir, f)); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}

	// Near-even contiguous split: the first n%shards shards hold one
	// extra mask.
	counts := make([]int, shards)
	for i := range counts {
		counts[i] = n / shards
		if i < n%shards {
			counts[i]++
		}
	}

	var (
		f            *os.File
		w            *bufio.Writer
		segEntries   []Entry
		segOffsets   []int64
		segFirst     int64
		si           int
		infos        []ShardInfo
		totalEntries int
	)
	segDir := func(i int) string {
		if shards == 1 {
			return dir
		}
		return filepath.Join(dir, ShardDirName(i))
	}
	maskFileName := masksFile
	if codec == CodecRLE {
		maskFileName = masksRLEFile
	}
	openSeg := func(first int64) error {
		d := segDir(si)
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
		// Remove the other codec's data files so a regenerated segment
		// never carries two layouts.
		stale := []string{masksRLEFile, masksRLEIndexFile}
		if codec == CodecRLE {
			stale = []string{masksFile}
		}
		for _, s := range stale {
			if err := os.Remove(filepath.Join(d, s)); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
		var err error
		//msvet:ignore fsyncrename bulk generation is not crash-safe by contract; a partial dataset is regenerated
		if f, err = os.Create(filepath.Join(d, maskFileName)); err != nil {
			return err
		}
		w = bufio.NewWriterSize(f, 1<<20)
		segEntries = segEntries[:0]
		segOffsets = append(segOffsets[:0], 0)
		segFirst = first
		return nil
	}
	closeSeg := func() error {
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		d := segDir(si)
		if codec == CodecRLE {
			if err := writeBulk(filepath.Join(d, masksRLEIndexFile), encodeOffsets(segOffsets)); err != nil {
				return err
			}
		}
		rows, err := encodeCatalog(segEntries)
		if err != nil {
			return err
		}
		if err := writeBulk(filepath.Join(d, catalogBinFile), rows); err != nil {
			return err
		}
		man := Manifest{Spec: spec, NumMasks: len(segEntries), Codec: codec, GenVersion: GenVersion}
		if shards > 1 {
			man.FirstID = segFirst
			infos = append(infos, ShardInfo{Dir: ShardDirName(si), FirstID: segFirst, NumMasks: len(segEntries)})
		}
		totalEntries += len(segEntries)
		return writeJSON(filepath.Join(d, manifestFile), man)
	}
	if err := openSeg(1); err != nil {
		return err
	}
	err := renderDataset(spec, func(e Entry, pix []byte) error {
		if len(segEntries) == counts[si] {
			if err := closeSeg(); err != nil {
				return err
			}
			si++
			if err := openSeg(e.MaskID); err != nil {
				return err
			}
		}
		if codec == CodecRLE {
			rle := core.EncodeRLE(pix, spec.W, spec.H)
			if _, err := w.Write(rle); err != nil {
				return err
			}
			segOffsets = append(segOffsets, segOffsets[len(segOffsets)-1]+int64(len(rle)))
		} else if _, err := w.Write(pix); err != nil {
			return err
		}
		segEntries = append(segEntries, e)
		return nil
	})
	if err != nil {
		f.Close()
		return err
	}
	if err := closeSeg(); err != nil {
		return err
	}
	if shards == 1 {
		return nil
	}
	return writeJSON(filepath.Join(dir, manifestFile),
		Manifest{Spec: spec, NumMasks: totalEntries, Codec: codec, GenVersion: GenVersion, Shards: infos})
}

// encodeOffsets returns the RLE offset column of offs: len(offs)
// little-endian uint64 values.
func encodeOffsets(offs []int64) []byte {
	buf := make([]byte, 8*len(offs))
	for i, o := range offs {
		binary.LittleEndian.PutUint64(buf[i*8:], uint64(o))
	}
	return buf
}

// ShardDirName is the directory name of the i-th listed segment of a
// database (shard-000, shard-001, …).
func ShardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// renderDataset walks spec's masks in id order (the identical order
// for every shard count), rendering each into a reused buffer and
// handing (entry, pixels) to emit. The entry's MaskID is assigned
// before the call; emit must not retain pix.
func renderDataset(spec Spec, emit func(e Entry, pix []byte) error) error {
	buf := make([]byte, spec.W*spec.H)
	var nextID int64 = 1
	emitMask := func(e Entry, render func(rng *rand.Rand, pix []byte)) error {
		e.MaskID = nextID
		nextID++
		// One sub-seed per mask keeps every mask reproducible
		// independently of generation order.
		rng := rand.New(rand.NewSource(spec.Seed<<20 ^ e.MaskID))
		render(rng, buf)
		return emit(e, buf)
	}

	for img := 1; img <= spec.Images; img++ {
		irng := rand.New(rand.NewSource(spec.Seed<<40 ^ int64(img)))
		label := irng.Intn(spec.Classes)
		obj := randomObjectBox(irng, spec.W, spec.H)
		objCenterX := (obj.X0 + obj.X1) / 2
		objCenterY := (obj.Y0 + obj.Y1) / 2

		for model := 1; model <= spec.Models; model++ {
			pred := label
			cx, cy := objCenterX, objCenterY
			// Mispredicting needs a second class to mispredict to.
			if spec.Classes > 1 && irng.Float64() < spec.MispredictRate {
				pred = (label + 1 + irng.Intn(spec.Classes-1)) % spec.Classes
				// A wrong model attends away from the object.
				cx = irng.Intn(spec.W)
				cy = irng.Intn(spec.H)
			}
			modified := irng.Float64() < spec.ModifiedRate
			e := Entry{
				ImageID: int64(img), ModelID: model, MaskType: TypeSaliency,
				Label: label, Pred: pred, Modified: modified, Object: obj,
			}
			sigma := float64(obj.W()+obj.H()) / 5
			if err := emitMask(e, func(rng *rand.Rand, pix []byte) {
				renderBlob(rng, pix, spec.W, spec.H, cx, cy, sigma, 0.75+0.25*rng.Float64())
				if modified {
					renderPatch(rng, pix, spec.W, spec.H)
				}
			}); err != nil {
				return err
			}
		}
		if spec.HumanAttention {
			e := Entry{
				ImageID: int64(img), ModelID: 0, MaskType: TypeHumanAttention,
				Label: label, Pred: label, Object: obj,
			}
			sigma := float64(obj.W()+obj.H()) / 7
			if err := emitMask(e, func(rng *rand.Rand, pix []byte) {
				renderBlob(rng, pix, spec.W, spec.H, objCenterX, objCenterY, sigma, 1.0)
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// LoadManifest reads the manifest of an existing database, if any.
func LoadManifest(dir string) (Manifest, error) {
	var man Manifest
	err := readJSON(filepath.Join(dir, manifestFile), &man)
	return man, err
}

func randomObjectBox(rng *rand.Rand, w, h int) core.Rect {
	bw := w/5 + rng.Intn(max(1, w/3))
	bh := h/5 + rng.Intn(max(1, h/3))
	x0 := rng.Intn(max(1, w-bw))
	y0 := rng.Intn(max(1, h-bh))
	return core.Rect{X0: x0, Y0: y0, X1: x0 + bw, Y1: y0 + bh}
}

// renderBlob fills pix with background noise plus a Gaussian bump of
// the given peak at (cx, cy). A peak of 1.0 saturates the center
// pixels to exactly 255 (v == 1.0), exercising the top histogram bin.
//
// The noise is drawn once per 4x4 pixel block, not per pixel: real
// saliency maps come from upsampling a coarse CAM/attention grid, so
// neighboring pixels are strongly correlated. Per-pixel white noise
// would make the synthetic masks incompressible in a way no real
// attention map is. Bump GenVersion when the rendering changes.
func renderBlob(rng *rand.Rand, pix []byte, w, h, cx, cy int, sigma, peak float64) {
	const noiseBlock = 4
	nbw := (w + noiseBlock - 1) / noiseBlock
	nbh := (h + noiseBlock - 1) / noiseBlock
	noise := make([]float64, nbw*nbh)
	for i := range noise {
		noise[i] = 0.12 * rng.Float64()
	}
	inv := 1 / (2 * sigma * sigma)
	for y := 0; y < h; y++ {
		nrow := noise[(y/noiseBlock)*nbw:]
		for x := 0; x < w; x++ {
			dx, dy := float64(x-cx), float64(y-cy)
			v := peak*math.Exp(-(dx*dx+dy*dy)*inv) + nrow[x/noiseBlock]
			if v > 1 {
				v = 1
			}
			pix[y*w+x] = byte(math.Round(v * 255))
		}
	}
}

// renderPatch overlays a small near-saturated adversarial square in a
// random corner region.
func renderPatch(rng *rand.Rand, pix []byte, w, h int) {
	side := max(2, w/8)
	x0 := rng.Intn(max(1, w-side))
	y0 := rng.Intn(max(1, h-side))
	for y := y0; y < y0+side; y++ {
		for x := x0; x < x0+side; x++ {
			pix[y*w+x] = byte(242 + rng.Intn(14))
		}
	}
}
