package main

import (
	"math"
	"slices"

	"masksearch"
)

// digest folds a query answer — plan kind, ids, ranked ids and score
// bits, in order — into 64 bits, cheap enough to take inside a timed
// loop. Two answers with equal digests are treated as byte-identical.
func digest(kind string, ids []int64, ranked []masksearch.Scored) uint64 {
	const prime = 0x9E3779B97F4A7C15
	h := uint64(len(kind))<<32 ^ uint64(len(ids))<<16 ^ uint64(len(ranked))
	mix := func(x uint64) {
		h = (h ^ x) * prime
		h ^= h >> 29
	}
	for i := 0; i < len(kind); i++ {
		mix(uint64(kind[i]))
	}
	for _, id := range ids {
		mix(uint64(id))
	}
	for _, r := range ranked {
		mix(uint64(r.ID))
		mix(math.Float64bits(r.Score))
	}
	return h
}

func digestResult(r *masksearch.Result) uint64 { return digest(r.Kind.String(), r.IDs, r.Ranked) }

// kindName is the plan-kind string the engine reports for an op kind.
func kindName(k opKind) string {
	switch k {
	case opTopK:
		return "topk"
	case opAgg:
		return "aggregation"
	}
	return "filter"
}

// oracle answers o by brute force — load every target mask, compute
// the exact CP, then filter, rank or aggregate in the open — sharing
// nothing with the engine but the mask loader and the CP kernel.
func oracle(db *masksearch.DB, o *op) (uint64, error) {
	type scored struct {
		e  masksearch.CatalogEntry
		cp int64
	}
	var targets []scored
entries:
	for _, e := range db.Entries() {
		for _, m := range o.Meta {
			if !m.matches(e) {
				continue entries
			}
		}
		t := scored{e: e}
		if o.Kind != opMeta {
			roi := o.Rect
			if o.Region == regionObject {
				roi = e.Object
			}
			m, err := db.LoadMask(e.MaskID)
			if err != nil {
				return 0, err
			}
			t.cp = masksearch.CP(m, roi, o.VR)
			db.ReleaseMask(m)
		}
		targets = append(targets, t)
	}

	rank := func(s []masksearch.Scored) []masksearch.Scored {
		slices.SortFunc(s, func(a, b masksearch.Scored) int {
			if a.Score != b.Score {
				if (a.Score > b.Score) == o.Desc {
					return -1
				}
				return 1
			}
			return int(a.ID - b.ID)
		})
		return s[:min(o.K, len(s))]
	}
	switch o.Kind {
	case opTopK:
		s := make([]masksearch.Scored, len(targets))
		for i, t := range targets {
			s[i] = masksearch.Scored{ID: t.e.MaskID, Score: float64(t.cp)}
		}
		return digest(kindName(o.Kind), nil, rank(s)), nil
	case opAgg:
		var keys []int64
		sum, n := map[int64]float64{}, map[int64]float64{}
		for _, t := range targets {
			if n[t.e.ImageID] == 0 {
				keys = append(keys, t.e.ImageID)
			}
			sum[t.e.ImageID] += float64(t.cp)
			n[t.e.ImageID]++
		}
		s := make([]masksearch.Scored, len(keys))
		for i, k := range keys {
			s[i] = masksearch.Scored{ID: k, Score: sum[k] / n[k]}
		}
		return digest(kindName(o.Kind), nil, rank(s)), nil
	}
	ids := []int64{}
	for _, t := range targets {
		if o.Kind == opMeta || t.cp > o.Thresh {
			ids = append(ids, t.e.MaskID)
		}
	}
	return digest(kindName(o.Kind), ids, nil), nil
}
