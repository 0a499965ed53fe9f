package store

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"masksearch/internal/core"
)

// Mask types recorded in the catalog.
const (
	TypeSaliency       = 0 // model-produced saliency map
	TypeHumanAttention = 1 // human attention map (ModelID 0)
)

// Entry is one catalog row: the metadata of a stored mask.
type Entry struct {
	MaskID   int64     `json:"mask_id"`
	ImageID  int64     `json:"image_id"`
	ModelID  int       `json:"model_id"`
	MaskType int       `json:"mask_type"`
	Label    int       `json:"label"`
	Pred     int       `json:"pred"`
	Modified bool      `json:"modified"`
	Object   core.Rect `json:"object"`
}

// Mispredicted reports whether the producing model got the image wrong.
func (e Entry) Mispredicted() bool { return e.Pred != e.Label }

// Catalog is the in-memory metadata table of a mask database. It is
// append-only: ingestion grows it while queries run, so every method
// is safe for concurrent use, and View captures an immutable snapshot
// of the current prefix for snapshot-isolated query execution.
type Catalog struct {
	mu      sync.RWMutex
	entries []Entry
	byID    map[int64]int
}

// NewCatalog wraps entries (kept in the given order).
func NewCatalog(entries []Entry) *Catalog {
	c := &Catalog{entries: entries, byID: make(map[int64]int, len(entries))}
	for i, e := range entries {
		c.byID[e.MaskID] = i
	}
	return c
}

// Append adds rows for newly ingested masks. Snapshots taken before
// the call never see them; snapshots taken after always do.
func (c *Catalog) Append(entries []Entry) {
	c.mu.Lock()
	for _, e := range entries {
		c.byID[e.MaskID] = len(c.entries)
		c.entries = append(c.entries, e)
	}
	c.mu.Unlock()
}

// Len returns the current number of masks.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Entries returns a snapshot of the current rows; callers must not
// mutate it.
func (c *Catalog) Entries() []Entry { return c.View().Entries() }

// Entry returns the catalog row of one mask.
func (c *Catalog) Entry(id int64) (Entry, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	i, ok := c.byID[id]
	if !ok {
		return Entry{}, fmt.Errorf("store: no mask %d in catalog", id)
	}
	return c.entries[i], nil
}

// MaskIDs returns the ids of current entries that keep accepts, in
// catalog order (see View for the snapshot-isolated form).
func (c *Catalog) MaskIDs(keep func(*Entry) bool) []int64 {
	return c.View().MaskIDs(keep)
}

// GroupBy groups kept entries by an arbitrary integer key, returning
// groups sorted by key.
func (c *Catalog) GroupBy(key func(*Entry) int64, keep func(*Entry) bool) []core.Group {
	return c.View().GroupBy(key, keep)
}

// GroupByImage groups kept entries by image id.
func (c *Catalog) GroupByImage(keep func(*Entry) bool) []core.Group {
	return c.GroupBy(func(e *Entry) int64 { return e.ImageID }, keep)
}

// ObjectROI returns a RegionFn resolving each mask's object bounding
// box; unknown ids resolve to an empty rect. It answers from a snapshot
// pinned here — rows never change once appended and ids are dense, so
// the per-mask path is an index and a compare, no lock, no hashing.
// Only ids appended since fall back to the live catalog under its lock.
func (c *Catalog) ObjectROI() core.RegionFn {
	v := c.View()
	return func(id int64) core.Rect {
		if e := v.row(id); e != nil {
			return e.Object
		}
		c.mu.RLock()
		defer c.mu.RUnlock()
		if i, ok := c.byID[id]; ok {
			return c.entries[i].Object
		}
		return core.Rect{}
	}
}

// View captures an immutable snapshot of the catalog: the rows present
// at the call, in order. Queries resolve their target id-space against
// one view, so the ids a query considers never shift while concurrent
// Appends land (snapshot isolation). The snapshot is a slice header
// over the append-only backing array, so taking one is O(1).
func (c *Catalog) View() CatalogView {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return CatalogView{entries: c.entries[:len(c.entries):len(c.entries)]}
}

// CatalogView is one immutable catalog snapshot (see Catalog.View).
// Its methods need no locks and always answer from the pinned prefix.
type CatalogView struct {
	entries []Entry
}

// Len returns the number of masks in the snapshot.
func (v CatalogView) Len() int { return len(v.entries) }

// MaxID returns the highest mask id in the snapshot (0 when empty).
func (v CatalogView) MaxID() int64 {
	if len(v.entries) == 0 {
		return 0
	}
	return v.entries[len(v.entries)-1].MaskID
}

// Entries returns the snapshot's rows; callers must not mutate them.
func (v CatalogView) Entries() []Entry { return v.entries }

// row returns the snapshot's row of mask id when it sits where dense
// ids put it (row id-1), else nil.
func (v CatalogView) row(id int64) *Entry {
	if i := uint64(id - 1); i < uint64(len(v.entries)) && v.entries[i].MaskID == id {
		return &v.entries[i]
	}
	return nil
}

// MaskIDs returns the ids of snapshot entries that keep accepts (all
// when keep is nil), in catalog order. keep sees each row in place and
// must not modify or retain it.
func (v CatalogView) MaskIDs(keep func(*Entry) bool) []int64 {
	out := make([]int64, 0, len(v.entries))
	for i := range v.entries {
		if e := &v.entries[i]; keep == nil || keep(e) {
			out = append(out, e.MaskID)
		}
	}
	return out
}

// GroupBy groups kept snapshot entries by an arbitrary integer key,
// returning groups sorted by key.
func (v CatalogView) GroupBy(key func(*Entry) int64, keep func(*Entry) bool) []core.Group {
	return v.GroupIDs(v.MaskIDs(keep), key)
}

// GroupIDs groups ids — a subsequence of the snapshot's ids in catalog
// order, such as MaskIDs returns and a filter stage thins — by key,
// returning groups sorted by key, each group's ids in catalog order.
// Ids the snapshot does not hold are ignored. It is one merge pass over
// ids and rows: while keys come out non-decreasing (rows of one image
// are adjacent) the groups are runs of one shared array; only keys that
// come back after others send the grouping through a map.
func (v CatalogView) GroupIDs(ids []int64, key func(*Entry) int64) []core.Group {
	held, keys := make([]int64, 0, len(ids)), make([]int64, 0, len(ids))
	runs, next := true, 0
	for _, id := range ids {
		e := v.row(id)
		for e == nil && next < len(v.entries) { // ids not dense: walk the merge cursor
			if v.entries[next].MaskID == id {
				e = &v.entries[next]
			}
			next++
		}
		if e == nil {
			continue
		}
		k := key(e)
		runs = runs && (len(keys) == 0 || keys[len(keys)-1] <= k)
		held, keys = append(held, id), append(keys, k)
	}
	var groups []core.Group
	if runs {
		for i, j := 0, 0; i < len(held); i = j {
			for j = i + 1; j < len(held) && keys[j] == keys[i]; j++ {
			}
			groups = append(groups, core.Group{Key: keys[i], IDs: held[i:j:j]})
		}
		return groups
	}
	m := map[int64][]int64{}
	for i, k := range keys {
		m[k] = append(m[k], held[i])
	}
	for k, ids := range m {
		groups = append(groups, core.Group{Key: k, IDs: ids})
	}
	slices.SortFunc(groups, func(a, b core.Group) int { return cmp.Compare(a.Key, b.Key) })
	return groups
}
