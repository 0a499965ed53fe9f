package core

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// RegionFn resolves the region of interest for a mask id. Regions may
// be fixed rectangles or per-mask (e.g. each mask's object bounding
// box from the catalog).
type RegionFn func(maskID int64) Rect

// FixedRegion returns a RegionFn that ignores the mask id.
func FixedRegion(r Rect) RegionFn { return func(int64) Rect { return r } }

// CPTerm is one CP(mask, region, lo, hi) expression evaluated per
// mask. Queries carry a slice of terms; predicates and scores refer to
// them by Term index.
type CPTerm struct {
	// Name is the display form used by EXPLAIN and reports.
	Name   string
	Region RegionFn
	Range  ValueRange
	// Spec, when its Kind is set, is the serializable description of
	// Region. Region itself is a closure and cannot cross a process
	// boundary; the distributed coordinator ships Spec instead and the
	// remote node reconstructs an equivalent RegionFn against its own
	// copy of the catalog. Terms built by the SQL facade always carry
	// it; hand-built terms may leave it zero (RegionNone), which makes
	// them local-only.
	Spec RegionSpec
}

// Eval computes the exact CP of the term against a loaded mask.
func (t CPTerm) Eval(id int64, m *Mask) int64 { return ExactCP(m, t.Region(id), t.Range) }

// termPlan is everything about one CP term that is the same for every
// mask of a query, computed once per executor entry: the byte-quantized
// range and, derived from the first CHI the plan meets and published
// once, the chiPlan under that index's geometry and edges. A CHI the
// published chiPlan does not fit gets a private one — correct, slower.
type termPlan struct {
	region RegionFn
	rc     rangeCounter
	chi    atomic.Pointer[chiPlan]
}

func planTerms(terms []CPTerm) []termPlan {
	plans := make([]termPlan, len(terms))
	for i, t := range terms {
		plans[i].region, plans[i].rc = t.Region, newRangeCounter(t.Range)
	}
	return plans
}

// chiPlanFor returns the chiPlan fitting c; roi seeds the memoized
// cover when this call derives it.
func (p *termPlan) chiPlanFor(c *CHI, roi Rect) *chiPlan {
	g := p.chi.Load()
	if g != nil && g.fits(c) {
		return g
	}
	n := newChiPlan(c, p.rc.vr)
	n.roi, n.cells = roi, n.cover(nil, roi)
	if g == nil {
		p.chi.CompareAndSwap(nil, &n)
	}
	return &n
}

// bounds is CHI.CPBounds for the term on mask id. With the region the
// plan memoized (every mask of a fixed-rect term) it is a few loads and
// two clamps per covered cell; an object-box term walks its own cover
// and shares everything else.
func (p *termPlan) bounds(c *CHI, id int64) Bounds {
	roi := p.region(id)
	g := p.chiPlanFor(c, roi)
	if roi == g.roi {
		return g.sum(c.Cum, g.cells)
	}
	return g.sumRegion(c.Cum, roi)
}

func (t CPTerm) String() string {
	if t.Name != "" {
		return t.Name
	}
	return fmt.Sprintf("CP(mask, ?, %v)", t.Range)
}

// Term indexes into a query's CPTerm slice.
type Term int

// Op is a comparison operator for CP predicates.
type Op int

const (
	OpGt Op = iota
	OpGe
	OpLt
	OpLe
)

func (op Op) String() string {
	switch op {
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	}
	return "?"
}

// Tri is a three-valued logic result used when evaluating predicates
// over CP bounds during the filter stage.
type Tri int

const (
	Unknown Tri = iota
	False
	True
)

// Pred decides whether a mask qualifies. Eval sees exact term values
// (verification stage); FromBounds sees CHI bounds (filter stage) and
// may return Unknown, deferring the mask to verification.
type Pred interface {
	Eval(vals []int64) bool
	FromBounds(bs []Bounds) Tri
	String() string
}

// Cmp compares one term's CP against a constant.
type Cmp struct {
	T  Term
	Op Op
	C  int64
}

func (c Cmp) Eval(vals []int64) bool {
	v := vals[c.T]
	switch c.Op {
	case OpGt:
		return v > c.C
	case OpGe:
		return v >= c.C
	case OpLt:
		return v < c.C
	case OpLe:
		return v <= c.C
	}
	return false
}

func (c Cmp) FromBounds(bs []Bounds) Tri {
	b := bs[c.T]
	switch c.Op {
	case OpGt:
		if b.Lo > c.C {
			return True
		}
		if b.Hi <= c.C {
			return False
		}
	case OpGe:
		if b.Lo >= c.C {
			return True
		}
		if b.Hi < c.C {
			return False
		}
	case OpLt:
		if b.Hi < c.C {
			return True
		}
		if b.Lo >= c.C {
			return False
		}
	case OpLe:
		if b.Hi <= c.C {
			return True
		}
		if b.Lo > c.C {
			return False
		}
	}
	return Unknown
}

func (c Cmp) String() string { return fmt.Sprintf("T%d %v %d", int(c.T), c.Op, c.C) }

// And is the conjunction of predicates. An empty And is always true.
type And []Pred

func (a And) Eval(vals []int64) bool {
	for _, p := range a {
		if !p.Eval(vals) {
			return false
		}
	}
	return true
}

func (a And) FromBounds(bs []Bounds) Tri {
	out := True
	for _, p := range a {
		switch p.FromBounds(bs) {
		case False:
			return False
		case Unknown:
			out = Unknown
		}
	}
	return out
}

func (a And) String() string {
	if len(a) == 0 {
		return "true"
	}
	parts := make([]string, len(a))
	for i, p := range a {
		parts[i] = p.String()
	}
	return strings.Join(parts, " AND ")
}

// Order is a ranking direction for Top-K queries.
type Order int

const (
	Desc Order = iota
	Asc
)

func (o Order) String() string {
	if o == Asc {
		return "ASC"
	}
	return "DESC"
}

// Agg is an aggregation function applied to a term across a group.
type Agg int

const (
	Mean Agg = iota
	Sum
	Min
	Max
)

func (a Agg) String() string {
	switch a {
	case Mean:
		return "MEAN"
	case Sum:
		return "SUM"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	}
	return "?"
}

// Group is a keyed set of mask ids (e.g. all masks of one image).
type Group struct {
	Key int64
	IDs []int64
}

// Scored is one ranked result: a mask id (or group key) with its
// exact score.
type Scored struct {
	ID    int64
	Score float64
}

// Stats reports how the filter–verification pipeline resolved a query.
type Stats struct {
	// Targets is the number of masks the query considered.
	Targets int
	// IndexHits counts targets that had a CHI available.
	IndexHits int
	// AcceptedByBounds counts masks decided positively by CHI bounds
	// alone (no mask load).
	AcceptedByBounds int
	// RejectedByBounds counts masks pruned by CHI bounds alone.
	RejectedByBounds int
	// Loaded counts masks materialized for verification.
	Loaded int
}

// FML is the fraction of masks loaded, the paper's primary cost proxy
// (Figure 9: query time tracks FML almost perfectly).
func (s Stats) FML() float64 {
	if s.Targets == 0 {
		return 0
	}
	return float64(s.Loaded) / float64(s.Targets)
}

// Merge accumulates another stage's stats into s.
func (s *Stats) Merge(o Stats) {
	s.Targets += o.Targets
	s.IndexHits += o.IndexHits
	s.AcceptedByBounds += o.AcceptedByBounds
	s.RejectedByBounds += o.RejectedByBounds
	s.Loaded += o.Loaded
}

func (s Stats) String() string {
	return fmt.Sprintf("targets=%d indexed=%d accepted=%d rejected=%d loaded=%d fml=%.3f",
		s.Targets, s.IndexHits, s.AcceptedByBounds, s.RejectedByBounds, s.Loaded, s.FML())
}
