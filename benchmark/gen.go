package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"strings"

	"masksearch"
)

// genVersion identifies the op generator's output. Bump it whenever a
// change makes one seed produce a different op list: runs are only
// comparable between commits that print the same version and hash.
const genVersion = 1

// opKind is the plan shape an op exercises.
type opKind int

const (
	opFilter opKind = iota
	opTopK
	opAgg
	opMeta // metadata-only: no CP term, no mask touched
)

// regionKind selects how an op's CP region is resolved per mask.
type regionKind int

const (
	regionRect regionKind = iota
	regionObject
)

// metaPred is one metadata equality predicate of the dialect.
type metaPred struct {
	Col string // label | model_id | mispredicted
	Val int    // 0/1 for mispredicted
}

func (p metaPred) sql() string {
	if p.Col == "mispredicted" {
		return fmt.Sprintf("mispredicted = %v", p.Val == 1)
	}
	return fmt.Sprintf("%s = %d", p.Col, p.Val)
}

func (p metaPred) matches(e masksearch.CatalogEntry) bool {
	switch p.Col {
	case "label":
		return e.Label == p.Val
	case "model_id":
		return e.ModelID == p.Val
	default:
		return e.Mispredicted() == (p.Val == 1)
	}
}

// op is one generated operation. The program under test sees only SQL
// and Args; the structured fields exist so the brute-force oracle can
// evaluate the same question without parsing SQL.
type op struct {
	Kind opKind
	SQL  string
	Args []any

	Region regionKind
	Rect   masksearch.Rect
	VR     masksearch.ValueRange
	Thresh int64
	Meta   []metaPred
	K      int
	Desc   bool
}

// gen is the benchmark's seeded op generator. Region, value-range and
// threshold distributions follow the paper's §4.3 random queries;
// session reuse follows §4.5. Everything it emits is a function of
// (seed, stream, dataset geometry) alone.
type gen struct {
	rng    *rand.Rand
	w, h   int
	models []int // model ids present in the dataset
	labels int
	seen   map[string]bool // literal statements already emitted
	strata map[string]*stratum
}

// stratBlock is the block length of the generator's stratified draws.
const stratBlock = 20

// stratum is one named stream of stratified uniform draws.
type stratum struct {
	order []int
	next  int
}

// u draws from [0, 1) on the named stream. The draws that decide what
// an op costs — its kind, whether and how it is narrowed by metadata,
// region size, value range, threshold — are stratified: every block of
// stratBlock consecutive draws of one stream lands once in each of
// stratBlock equal slices of [0, 1), in seeded order with seeded
// jitter. Any long prefix of an op list then has nearly the same mix
// for every seed, so the spread between seeds measures the program and
// the machine, not the luck of the draw.
func (g *gen) u(stream string) float64 {
	st := g.strata[stream]
	if st == nil {
		st = &stratum{}
		g.strata[stream] = st
	}
	if st.next == len(st.order) {
		st.order, st.next = g.rng.Perm(stratBlock), 0
	}
	v := (float64(st.order[st.next]) + g.rng.Float64()) / stratBlock
	st.next++
	return v
}

// n draws an int in [0, n) on the named stratified stream.
func (g *gen) n(stream string, n int) int { return min(n-1, int(g.u(stream)*float64(n))) }

// newGen returns the generator of one named op stream. Streams with
// the same name share an op list (explore.rle replays explore.raw's).
func newGen(seed int64, stream string, spec masksearch.DatasetSpec) *gen {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, genVersion)
	g := &gen{
		rng: rand.New(rand.NewSource(int64(h.Sum64()))),
		w:   spec.W, h: spec.H, labels: 10,
		seen:   map[string]bool{},
		strata: map[string]*stratum{},
	}
	if spec.Classes > 0 {
		g.labels = spec.Classes
	}
	if spec.HumanAttention {
		g.models = append(g.models, 0)
	}
	for m := 1; m <= spec.Models; m++ {
		g.models = append(g.models, m)
	}
	return g
}

// rect draws a rectangle covering roughly 10–60 % of each axis (§4.3).
func (g *gen) rect() masksearch.Rect {
	rw := max(1, g.w/10+g.n("rect.w", max(1, g.w/2)))
	rh := max(1, g.h/10+g.n("rect.h", max(1, g.h/2)))
	x0 := g.rng.Intn(max(1, g.w-rw+1))
	y0 := g.rng.Intn(max(1, g.h-rh+1))
	return masksearch.Rect{X0: x0, Y0: y0, X1: x0 + rw, Y1: y0 + rh}
}

// valueRange draws lo in 0.25..0.85 (0.05 steps); four in five ranges
// are top-closed at 1.0 (saliency queries), the rest interior bands.
// Values are whole hundredths so "%.2f" renders them exactly.
func (g *gen) valueRange() masksearch.ValueRange {
	lo := 5 * (5 + g.n("range.lo", 13))
	hi := 100
	if g.u("range.band") >= 0.8 {
		hi = min(100, lo+10+5*g.rng.Intn(3))
	}
	return masksearch.ValueRange{Lo: float64(lo) / 100, Hi: float64(hi) / 100}
}

// region draws a CP region: half object boxes, half random rects.
func (g *gen) region() (regionKind, masksearch.Rect) {
	if g.u("region") < 0.5 {
		return regionObject, masksearch.Rect{}
	}
	return regionRect, g.rect()
}

// threshold scales with the region: up to 60 % of a rect's area, or
// of a typical object box (~1/8 of the image).
func (g *gen) threshold(kind regionKind, r masksearch.Rect) int64 {
	area := float64(g.w*g.h) / 8
	if kind == regionRect {
		area = float64(r.Area())
	}
	return int64(g.u("threshold") * area * 0.6)
}

// meta draws one metadata subset.
func (g *gen) meta() []metaPred {
	switch g.n("meta", 3) {
	case 0:
		return []metaPred{{"label", g.rng.Intn(g.labels)}}
	case 1:
		return []metaPred{{"model_id", g.models[g.rng.Intn(len(g.models))]}}
	default:
		return []metaPred{{"mispredicted", g.rng.Intn(2)}}
	}
}

func regionSQL(kind regionKind, r masksearch.Rect) string {
	if kind == regionObject {
		return "object"
	}
	return fmt.Sprintf("rect(%d,%d,%d,%d)", r.X0, r.Y0, r.X1, r.Y1)
}

func cpSQL(o *op) string {
	return fmt.Sprintf("CP(mask, %s, %.2f, %.2f)", regionSQL(o.Region, o.Rect), o.VR.Lo, o.VR.Hi)
}

func orderSQL(desc bool) string {
	if desc {
		return "DESC"
	}
	return "ASC"
}

// literalSQL renders o with every value inlined.
func literalSQL(o *op) string {
	var conds []string
	if o.Kind == opFilter {
		conds = append(conds, fmt.Sprintf("%s > %d", cpSQL(o), o.Thresh))
	}
	for _, m := range o.Meta {
		conds = append(conds, m.sql())
	}
	where := ""
	if len(conds) > 0 {
		where = " WHERE " + strings.Join(conds, " AND ")
	}
	switch o.Kind {
	case opTopK:
		return fmt.Sprintf("SELECT mask_id FROM masks%s ORDER BY %s %s LIMIT %d", where, cpSQL(o), orderSQL(o.Desc), o.K)
	case opAgg:
		return fmt.Sprintf("SELECT image_id, MEAN(%s) AS a FROM masks%s GROUP BY image_id ORDER BY a %s LIMIT %d", cpSQL(o), where, orderSQL(o.Desc), o.K)
	}
	return "SELECT mask_id FROM masks" + where
}

// shape draws the query part of an op of the given kind (no metadata).
func (g *gen) shape(kind opKind) op {
	o := op{Kind: kind, VR: g.valueRange(), Desc: true}
	switch kind {
	case opFilter:
		o.Region, o.Rect = g.region()
		o.Thresh = g.threshold(o.Region, o.Rect)
	case opTopK:
		o.Region, o.Rect = regionRect, g.rect()
		o.K = 5 + g.rng.Intn(30)
		o.Desc = g.u("order") >= 0.2
	case opAgg:
		o.Region, o.Rect = regionRect, g.rect()
		o.K = 5 + g.rng.Intn(20)
		o.Desc = g.u("order") >= 0.2
	}
	return o
}

// pickKind draws an op kind from cumulative shares of filter/topk/agg.
func (g *gen) pickKind(filter, topk float64) opKind {
	switch r := g.u("kind"); {
	case r < filter:
		return opFilter
	case r < filter+topk:
		return opTopK
	}
	return opAgg
}

// exploreOps draws n ad-hoc exploration ops: every statement is a
// literal the program has not seen (so each pays parse + plan), mixed
// filter/topk/grouped-MEAN by the given shares, half of them narrowed
// by a metadata predicate.
func (g *gen) exploreOps(n int, filter, topk float64) []op {
	ops := make([]op, 0, n)
	for len(ops) < n {
		o := g.shape(g.pickKind(filter, topk))
		if g.u("narrowed") < 0.5 {
			o.Meta = g.meta()
		}
		o.SQL = literalSQL(&o)
		if g.seen[o.SQL] {
			continue
		}
		g.seen[o.SQL] = true
		ops = append(ops, o)
	}
	return ops
}

// Session shape of session.cold (§4.5).
const (
	sessionBatches  = 5
	batchStatements = 5
	revisitProb     = 0.5
)

// session draws one exploration session: sessionBatches batches of
// batchStatements literal statements. With probability revisitProb a
// statement revisits the metadata subset and region of an earlier
// statement of the session with a fresh value range and threshold, so
// an incrementally built index and a mask cache have work to reuse.
func (g *gen) session() [][]op {
	var prev []op
	out := make([][]op, sessionBatches)
	for b := range out {
		for range batchStatements {
			var o op
			if len(prev) > 0 && g.u("revisit") < revisitProb {
				o = prev[g.rng.Intn(len(prev))]
				o.VR = g.valueRange()
				if o.Kind == opFilter {
					o.Thresh = g.threshold(o.Region, o.Rect)
				}
			} else {
				o = g.shape(g.pickKind(0.7, 0.3))
				o.Meta = g.meta()
			}
			o.SQL = literalSQL(&o)
			prev = append(prev, o)
			out[b] = append(out[b], o)
		}
	}
	return out
}

// serveShapes is the fixed statement set of serve.open: parameterised
// texts a session prepares once. Rect coordinates are part of a
// statement's shape in the dialect, so the full-catalog shapes carry
// three rects of fixed sizes (a quarter, two fifths and half of each
// axis) at seeded positions: with so few shapes, seeded sizes would
// make one seed's full-catalog requests dearer than another's.
type serveShapes struct {
	narrow, meta string
	filters      []op // SQL + region of each full-catalog filter shape
	topks        []op
}

func (g *gen) serveShapes() serveShapes {
	s := serveShapes{
		narrow: "SELECT mask_id FROM masks WHERE CP(mask, object, ?, ?) > ? AND label = ? AND model_id = ?",
		meta:   "SELECT mask_id FROM masks WHERE label = ? AND model_id = ?",
	}
	regions := []op{{Region: regionObject}}
	for _, frac := range []float64{0.25, 0.4, 0.5} {
		rw, rh := max(1, int(frac*float64(g.w))), max(1, int(frac*float64(g.h)))
		x0, y0 := g.rng.Intn(g.w-rw+1), g.rng.Intn(g.h-rh+1)
		regions = append(regions, op{Region: regionRect, Rect: masksearch.Rect{X0: x0, Y0: y0, X1: x0 + rw, Y1: y0 + rh}})
	}
	for _, r := range regions {
		f := r
		f.Kind = opFilter
		f.SQL = fmt.Sprintf("SELECT mask_id FROM masks WHERE CP(mask, %s, ?, ?) > ?", regionSQL(r.Region, r.Rect))
		s.filters = append(s.filters, f)
		if r.Region == regionRect {
			t := r
			t.Kind = opTopK
			t.SQL = fmt.Sprintf("SELECT mask_id FROM masks ORDER BY CP(mask, %s, ?, ?) DESC LIMIT ?", regionSQL(r.Region, r.Rect))
			s.topks = append(s.topks, t)
		}
	}
	return s
}

// serveOps draws n requests over shapes: 50 % narrow (one label of one
// model: ≈150 targets on wilds-sim), 40 % full-catalog filter/top-k,
// 10 % metadata-only (no mask touched: the HTTP + JSON floor).
func (g *gen) serveOps(n int, shapes serveShapes) []op {
	ops := make([]op, n)
	for i := range ops {
		label, model := g.rng.Intn(g.labels), g.models[g.rng.Intn(len(g.models))]
		meta := []metaPred{{"label", label}, {"model_id", model}}
		var o op
		switch r := g.u("class"); {
		case r < 0.5:
			o = op{Kind: opFilter, SQL: shapes.narrow, Region: regionObject, VR: g.valueRange(), Meta: meta}
			o.Thresh = g.threshold(regionObject, o.Rect)
			o.Args = []any{o.VR.Lo, o.VR.Hi, o.Thresh, label, model}
		case r < 0.7:
			o = shapes.filters[g.n("shape.filter", len(shapes.filters))]
			o.VR = g.valueRange()
			o.Thresh = g.threshold(o.Region, o.Rect)
			o.Args = []any{o.VR.Lo, o.VR.Hi, o.Thresh}
		case r < 0.9:
			o = shapes.topks[g.n("shape.topk", len(shapes.topks))]
			o.VR, o.Desc = g.valueRange(), true
			o.K = 5 + g.rng.Intn(30)
			o.Args = []any{o.VR.Lo, o.VR.Hi, o.K}
		default:
			o = op{Kind: opMeta, SQL: shapes.meta, Meta: meta, Args: []any{label, model}}
		}
		ops[i] = o
	}
	return ops
}

// appendBatchSize is the number of masks per ingest.mixed Append.
const appendBatchSize = 8

// appendBatches draws n Append payloads of appendBatchSize masks: low
// background noise with one saturated blob inside the object box, on
// image ids above the synthetic dataset's.
func (g *gen) appendBatches(n int) [][]masksearch.AppendMask {
	out := make([][]masksearch.AppendMask, n)
	for b := range out {
		batch := make([]masksearch.AppendMask, appendBatchSize)
		for i := range batch {
			obj := g.rect()
			pix := make([]byte, g.w*g.h)
			g.rng.Read(pix)
			for j := range pix {
				pix[j] &= 0x3f
			}
			for y := obj.Y0; y < obj.Y1; y++ {
				for x := obj.X0; x < obj.X1; x++ {
					pix[y*g.w+x] = 0xc0 | pix[y*g.w+x]
				}
			}
			label := g.rng.Intn(g.labels)
			batch[i] = masksearch.AppendMask{
				ImageID: int64(1_000_000 + b*appendBatchSize + i),
				ModelID: g.models[len(g.models)-1], MaskType: 0,
				Label: label, Pred: label, Object: obj, Pixels: pix,
			}
		}
		out[b] = batch
	}
	return out
}

// opHasher accumulates the SHA-256 of everything a workload hands the
// program, so two runs can prove they measured the same inputs.
type opHasher struct{ h hash.Hash }

func newOpHasher() *opHasher { return &opHasher{h: sha256.New()} }

func (x *opHasher) ops(ops []op) {
	for i := range ops {
		fmt.Fprintf(x.h, "%s\x00%v\n", ops[i].SQL, ops[i].Args)
	}
}

func (x *opHasher) appends(batches [][]masksearch.AppendMask) {
	for _, b := range batches {
		for _, m := range b {
			var meta [40]byte
			binary.LittleEndian.PutUint64(meta[0:], uint64(m.ImageID))
			binary.LittleEndian.PutUint32(meta[8:], uint32(m.ModelID))
			binary.LittleEndian.PutUint32(meta[12:], uint32(m.Label))
			binary.LittleEndian.PutUint32(meta[16:], uint32(m.Pred))
			for k, v := range []int{m.Object.X0, m.Object.Y0, m.Object.X1, m.Object.Y1} {
				binary.LittleEndian.PutUint32(meta[20+4*k:], uint32(v))
			}
			x.h.Write(meta[:])
			x.h.Write(m.Pixels)
		}
	}
}

func (x *opHasher) sum() string { return hex.EncodeToString(x.h.Sum(nil)) }
