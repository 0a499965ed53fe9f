package store

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"masksearch/internal/core"
)

// oracleGroupBy is CatalogView.GroupBy as it stood before the merge
// pass — a map of appended slices, sorted by key — kept as the
// reference GroupIDs must reproduce.
func oracleGroupBy(v CatalogView, key func(Entry) int64, keep func(Entry) bool) []core.Group {
	m := map[int64][]int64{}
	for _, e := range v.entries {
		if keep == nil || keep(e) {
			k := key(e)
			m[k] = append(m[k], e.MaskID)
		}
	}
	out := make([]core.Group, 0, len(m))
	for k, ids := range m {
		out = append(out, core.Group{Key: k, IDs: ids})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// testEntries lays rows out image-major (the generator's order) or, for
// sparse, with gaps in the ids so the dense-row shortcut misses.
func testEntries(rng *rand.Rand, n int, sparse bool) []Entry {
	entries := make([]Entry, n)
	id := int64(0)
	for i := range entries {
		id++
		if sparse {
			id += int64(rng.Intn(3))
		}
		entries[i] = Entry{
			MaskID: id, ImageID: int64(i/3 + 1), ModelID: i % 3, Label: rng.Intn(5),
			Object: core.Rect{X0: i, Y0: 1, X1: i + 7, Y1: 9},
		}
	}
	return entries
}

// TestGroupIDsMatchesGroupBy: grouping a target subsequence in one
// merge pass equals the old re-scan of the catalog with a membership
// map, for adjacent keys (image_id), repeating keys (model_id, label),
// prefiltered targets, sparse ids, and targets naming rows appended
// after the view was taken (which must be ignored).
func TestGroupIDsMatchesGroupBy(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	keys := map[string]func(*Entry) int64{
		"image_id": func(e *Entry) int64 { return e.ImageID },
		"model_id": func(e *Entry) int64 { return int64(e.ModelID) },
		"label":    func(e *Entry) int64 { return int64(e.Label) },
	}
	for iter := 0; iter < 200; iter++ {
		all := testEntries(rng, 1+rng.Intn(90), iter%2 == 1)
		cut := 1 + rng.Intn(len(all))
		cat := NewCatalog(append([]Entry(nil), all[:cut]...))
		v := cat.View()
		cat.Append(all[cut:])
		later := cat.View()

		drop := rng.Float64()
		in := map[int64]bool{}
		var targets []int64
		for _, id := range later.MaskIDs(nil) { // includes ids past v
			if rng.Float64() >= drop {
				targets = append(targets, id)
				in[id] = true
			}
		}
		for name, key := range keys {
			want := oracleGroupBy(v, func(e Entry) int64 { return key(&e) }, func(e Entry) bool { return in[e.MaskID] })
			got := v.GroupIDs(targets, key)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("iter %d key %s: GroupIDs = %v, old GroupBy = %v", iter, name, got, want)
			}
			keep := func(e *Entry) bool { return in[e.MaskID] }
			if got := v.GroupBy(key, keep); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("iter %d key %s: GroupBy = %v, old GroupBy = %v", iter, name, got, want)
			}
		}
	}
}

// TestObjectROIConcurrentAppend: the region function answers from its
// pinned snapshot without the lock, resolves a mask appended afterwards
// through the live catalog, and gives unknown ids an empty rect — under
// -race, with Appends landing while it is being called.
func TestObjectROIConcurrentAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, sparse := range []bool{false, true} {
		all := testEntries(rng, 400, sparse)
		cat := NewCatalog(append([]Entry(nil), all[:100]...))
		roi := cat.ObjectROI()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 100; i < len(all); i += 10 {
				cat.Append(all[i : i+10])
			}
		}()
		for pass := 0; pass < 50; pass++ {
			for _, e := range all[:100] {
				if got := roi(e.MaskID); got != e.Object {
					t.Errorf("sparse=%v: pinned mask %d resolved to %v, want %v", sparse, e.MaskID, got, e.Object)
				}
			}
		}
		wg.Wait()
		for _, e := range all {
			if got := roi(e.MaskID); got != e.Object {
				t.Fatalf("sparse=%v: mask %d resolved to %v, want %v", sparse, e.MaskID, got, e.Object)
			}
		}
		for _, id := range []int64{0, -3, all[len(all)-1].MaskID + 1, 1 << 40} {
			if got := roi(id); got != (core.Rect{}) {
				t.Fatalf("unknown id %d resolved to %v", id, got)
			}
		}
	}
}

// TestMaskIDsAllocs: a scan allocates its result and nothing per row.
func TestMaskIDsAllocs(t *testing.T) {
	v := NewCatalog(testEntries(rand.New(rand.NewSource(33)), 4500, false)).View()
	keep := func(e *Entry) bool { return e.ModelID == 1 }
	if n := testing.AllocsPerRun(20, func() { v.MaskIDs(keep) }); n > 1 {
		t.Fatalf("MaskIDs allocates %v times per call, want at most 1", n)
	}
}

var groupSink []core.Group

// BenchmarkGroupTargets is the coordinator's grouping step for one
// aggregation query over the explore workloads' catalog shape: 4 500
// rows, three per image, all of them targets or every other one.
func BenchmarkGroupTargets(b *testing.B) {
	v := NewCatalog(testEntries(rand.New(rand.NewSource(34)), 4500, false)).View()
	for _, bc := range []struct {
		name string
		keep func(*Entry) bool
		key  func(*Entry) int64
	}{
		{"image/all", nil, func(e *Entry) int64 { return e.ImageID }},
		{"image/half", func(e *Entry) bool { return e.MaskID%2 == 0 }, func(e *Entry) int64 { return e.ImageID }},
		{"label/all", nil, func(e *Entry) int64 { return int64(e.Label) }},
	} {
		targets := v.MaskIDs(bc.keep)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				groupSink = v.GroupIDs(targets, bc.key)
			}
		})
	}
}
