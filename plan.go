package masksearch

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"masksearch/internal/core"
	"masksearch/internal/store"
)

// PlanKind identifies which executor answers a query.
type PlanKind int

const (
	planFilter PlanKind = iota
	planTopK
	planAgg
)

func (k PlanKind) String() string {
	switch k {
	case planFilter:
		return "filter"
	case planTopK:
		return "topk"
	case planAgg:
		return "aggregation"
	}
	return "?"
}

// plan is a compiled, executable msquery statement with every value
// resolved. Plans are produced by planTemplate.bind: a statement
// without placeholders binds to its template's base plan directly,
// one with placeholders binds to a patched copy per argument set.
type plan struct {
	kind PlanKind

	// storage names the mask layout the plan reads, for EXPLAIN only
	// ("rle (compute-on-compressed)" over a compressed store; empty —
	// and omitted from the output — over the raw layout).
	storage string

	// targetDesc and keep restrict the candidate masks by metadata.
	targetDesc string
	keep       func(*store.Entry) bool

	// filterTerms and pred implement WHERE CP(...) predicates.
	filterTerms []core.CPTerm
	filterDescs []string
	pred        core.Pred
	predDesc    string

	// scoreTerms holds the single ranking/aggregation term.
	scoreTerms []core.CPTerm
	scoreDesc  string

	// Aggregation state.
	groupBy  string
	groupKey func(*store.Entry) int64
	agg      core.Agg
	aggAlias string

	k       int
	kDesc   string // "?N" while LIMIT is an unbound placeholder
	order   core.Order
	orderBy string
}

// binder patches one parameter site of a cloned plan with its bound
// value, performing the site's range/type checks.
type binder func(p *plan, args []float64) error

// metaCond is one metadata WHERE condition in template form: the
// comparison value may be a placeholder, so the keep closure is built
// when the values are known.
type metaCond struct {
	col, op  string
	eq       bool // op == "="
	intFn    func(*store.Entry) int64
	boolFn   func(*store.Entry) bool // non-nil for modified/mispredicted
	boolWant bool
	num      numVal
}

// desc renders the condition for EXPLAIN: ?N while unbound (args ==
// nil), the bound integer otherwise.
func (m *metaCond) desc(args []float64) string {
	if m.boolFn != nil {
		return fmt.Sprintf("%s %s %v", m.col, m.op, m.boolWant)
	}
	if m.num.isParam() && args == nil {
		return fmt.Sprintf("%s %s %s", m.col, m.op, m.num)
	}
	return fmt.Sprintf("%s %s %d", m.col, m.op, int64(m.num.value(args)))
}

// hasParam reports whether the comparison value is a placeholder.
func (m *metaCond) hasParam() bool { return m.boolFn == nil && m.num.isParam() }

// test builds the condition's entry predicate against bound values.
func (m *metaCond) test(args []float64) (func(*store.Entry) bool, error) {
	if m.boolFn != nil {
		want := m.boolWant
		if !m.eq {
			want = !want
		}
		fn := m.boolFn
		return func(e *store.Entry) bool { return fn(e) == want }, nil
	}
	v := m.num.value(args)
	if m.num.isParam() && (v != math.Trunc(v) || math.IsInf(v, 0)) {
		return nil, bindErrf(m.num, "%s compares against an integer, got %v", m.col, v)
	}
	want, eq, fn := int64(v), m.eq, m.intFn
	return func(e *store.Entry) bool { return (fn(e) == want) == eq }, nil
}

// planTemplate is a compiled statement with unresolved `?`
// parameters. The expensive, value-independent work — lexing,
// parsing, shape validation, term deduplication, target predicates —
// is done once at Prepare time; bind only patches the parameter sites
// into a copy of the base plan and runs their range checks.
type planTemplate struct {
	nParams int
	base    plan

	metas      []metaCond
	metaParams bool // any metadata condition holds a placeholder

	predParams bool // any CP comparison holds a placeholder
	binders    []binder
}

// bindErrf builds a positioned BindError for the site holding n.
func bindErrf(n numVal, format string, args ...any) error {
	return &BindError{Param: n.param + 1, Msg: fmt.Sprintf(format, args...)}
}

// buildKeep folds the metadata conditions into one entry predicate
// and its description. args is nil for the unbound template rendering
// (placeholders shown as ?N, keep left nil).
func (t *planTemplate) buildKeep(args []float64) (func(*store.Entry) bool, string, error) {
	if len(t.metas) == 0 {
		return nil, "all", nil
	}
	descs := make([]string, len(t.metas))
	conds := make([]func(*store.Entry) bool, len(t.metas))
	for i := range t.metas {
		m := &t.metas[i]
		descs[i] = m.desc(args)
		if args == nil && m.hasParam() {
			continue
		}
		fn, err := m.test(args)
		if err != nil {
			return nil, "", err
		}
		conds[i] = fn
	}
	desc := strings.Join(descs, " AND ")
	if args == nil && t.metaParams {
		return nil, desc, nil
	}
	keep := func(e *store.Entry) bool {
		for _, f := range conds {
			if !f(e) {
				return false
			}
		}
		return true
	}
	return keep, desc, nil
}

// bind resolves the template against one argument set, enforcing
// arity and the per-site range checks the parser applies to literals.
// A template without parameters binds to its base plan without
// copying; otherwise the parameter-dependent slices are cloned so
// concurrent binds of one prepared statement never share state.
func (t *planTemplate) bind(args []float64) (*plan, error) {
	if len(args) != t.nParams {
		return nil, &BindError{Msg: fmt.Sprintf("statement has %d parameter(s), got %d argument(s)", t.nParams, len(args))}
	}
	p := t.base
	if t.nParams == 0 {
		return &p, nil
	}
	for i, v := range args {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, &BindError{Param: i + 1, Msg: fmt.Sprintf("argument must be a finite number, got %v", v)}
		}
	}
	p.filterTerms = slices.Clone(p.filterTerms)
	p.filterDescs = slices.Clone(p.filterDescs)
	p.scoreTerms = slices.Clone(p.scoreTerms)
	if a, ok := p.pred.(core.And); ok {
		p.pred = slices.Clone(a)
	}
	if t.metaParams {
		keep, desc, err := t.buildKeep(args)
		if err != nil {
			return nil, err
		}
		p.keep, p.targetDesc = keep, desc
	}
	for _, b := range t.binders {
		if err := b(&p, args); err != nil {
			return nil, err
		}
	}
	if t.predParams {
		p.predDesc = p.pred.String()
	}
	return &p, nil
}

// region resolves a parsed region spec to a RegionFn over this DB,
// plus its wire-friendly RegionSpec so a distributed coordinator can
// ship the term to shard nodes (every parser-produced region is
// serializable; only hand-built terms can carry RegionNone).
func (db *DB) region(r regionSpec) (core.RegionFn, core.RegionSpec) {
	switch r.kind {
	case regionObject:
		return db.cat.ObjectROI(), core.RegionSpec{Kind: core.RegionObject}
	case regionFull:
		full := core.Rect{X0: 0, Y0: 0, X1: db.st.MaskW(), Y1: db.st.MaskH()}
		return core.FixedRegion(full), core.RegionSpec{Kind: core.RegionRect, Rect: full}
	default:
		return core.FixedRegion(r.rect), core.RegionSpec{Kind: core.RegionRect, Rect: r.rect}
	}
}

// term compiles a CP expression. Placeholder value bounds start at
// their zero values; bindRange patches them before execution.
func (db *DB) term(cp *cpExpr) core.CPTerm {
	fn, spec := db.region(cp.region)
	return core.CPTerm{
		Name:   cp.String(),
		Region: fn,
		Spec:   spec,
		Range:  core.ValueRange{Lo: cp.lo.v, Hi: cp.hi.v},
	}
}

// bindRange resolves a CP expression's value range against bound
// arguments, applying the parser's literal checks to the bound sites.
func (c *cpExpr) bindRange(args []float64) (core.ValueRange, string, error) {
	lo, hi := c.lo.value(args), c.hi.value(args)
	if c.lo.isParam() && (lo < 0 || lo > 1) {
		return core.ValueRange{}, "", bindErrf(c.lo, "CP value bounds must lie in [0, 1], got %g", lo)
	}
	if c.hi.isParam() && (hi < 0 || hi > 1) {
		return core.ValueRange{}, "", bindErrf(c.hi, "CP value bounds must lie in [0, 1], got %g", hi)
	}
	if hi < lo {
		n := c.hi
		if !n.isParam() {
			n = c.lo
		}
		return core.ValueRange{}, "", bindErrf(n, "CP value range is empty: lo %g > hi %g", lo, hi)
	}
	vr := core.ValueRange{Lo: lo, Hi: hi}
	desc := fmt.Sprintf("CP(mask, %s, %v)", c.region, vr)
	return vr, desc, nil
}

// metaCols maps metadata column names to integer accessors.
var metaCols = map[string]func(*store.Entry) int64{
	"mask_id":   func(e *store.Entry) int64 { return e.MaskID },
	"image_id":  func(e *store.Entry) int64 { return e.ImageID },
	"model_id":  func(e *store.Entry) int64 { return int64(e.ModelID) },
	"mask_type": func(e *store.Entry) int64 { return int64(e.MaskType) },
	"label":     func(e *store.Entry) int64 { return int64(e.Label) },
	"pred":      func(e *store.Entry) int64 { return int64(e.Pred) },
}

var metaBoolCols = map[string]func(*store.Entry) bool{
	"modified":     func(e *store.Entry) bool { return e.Modified },
	"mispredicted": func(e *store.Entry) bool { return e.Mispredicted() },
}

// cmpToPred translates "CP(...) op num" into an integer Cmp over term
// t, exact even for fractional thresholds (CP values are integers).
func cmpToPred(t core.Term, op string, num float64) core.Pred {
	switch op {
	case ">":
		return core.Cmp{T: t, Op: core.OpGt, C: int64(math.Floor(num))}
	case ">=":
		return core.Cmp{T: t, Op: core.OpGe, C: int64(math.Ceil(num))}
	case "<":
		return core.Cmp{T: t, Op: core.OpLt, C: int64(math.Ceil(num))}
	default: // "<="
		return core.Cmp{T: t, Op: core.OpLe, C: int64(math.Floor(num))}
	}
}

// compile turns a parsed statement into a plan template: shape
// validation and term construction happen here, parameter sites are
// recorded as binders.
func (db *DB) compile(stmt *selectStmt) (*planTemplate, error) {
	t := &planTemplate{nParams: stmt.nParams}
	p := &t.base
	if c := db.st.Codec(); c != "" {
		// bind copies t.base by value, so the storage line survives
		// into every bound plan without per-bind work.
		p.storage = c + " (compute-on-compressed)"
	}

	// LIMIT: literal now, placeholder at bind time.
	if stmt.limit.isParam() {
		lim := stmt.limit
		p.k = -1
		p.kDesc = lim.String()
		t.binders = append(t.binders, func(p *plan, args []float64) error {
			v := lim.value(args)
			if v != math.Trunc(v) || v < 0 {
				return bindErrf(lim, "LIMIT must be a non-negative integer, got %v", v)
			}
			p.k, p.kDesc = int(v), ""
			return nil
		})
	} else {
		p.k = int(stmt.limit.v)
	}

	// WHERE: split metadata conditions from CP predicates.
	var preds core.And
	var predDescs []string
	termIdx := map[string]core.Term{}
	for i := range stmt.conds {
		c := &stmt.conds[i]
		if c.cp != nil {
			key := c.cp.key()
			tm, ok := termIdx[key]
			if !ok {
				tm = core.Term(len(p.filterTerms))
				termIdx[key] = tm
				p.filterTerms = append(p.filterTerms, db.term(c.cp))
				p.filterDescs = append(p.filterDescs, c.cp.String())
				if c.cp.hasParams() {
					cp, ti := c.cp, int(tm)
					t.binders = append(t.binders, func(p *plan, args []float64) error {
						vr, desc, err := cp.bindRange(args)
						if err != nil {
							return err
						}
						p.filterTerms[ti].Range = vr
						p.filterTerms[ti].Name = desc
						p.filterDescs[ti] = desc
						return nil
					})
				}
			}
			if c.num.isParam() {
				t.predParams = true
				pi, num, op := len(preds), c.num, c.op
				t.binders = append(t.binders, func(p *plan, args []float64) error {
					p.pred.(core.And)[pi] = cmpToPred(tm, op, num.value(args))
					return nil
				})
				preds = append(preds, core.Cmp{T: tm})
				predDescs = append(predDescs, fmt.Sprintf("T%d %s %s", int(tm), c.op, c.num))
			} else {
				pred := cmpToPred(tm, c.op, c.num.v)
				preds = append(preds, pred)
				predDescs = append(predDescs, pred.String())
			}
			continue
		}
		col, op := c.col, c.op
		if fn, ok := metaBoolCols[col]; ok {
			if !c.isBool {
				return nil, errAt(c.pos, "%s compares against true or false", col)
			}
			t.metas = append(t.metas, metaCond{
				col: col, op: op, eq: op == "=", boolFn: fn, boolWant: c.boolVal,
			})
			continue
		}
		fn, ok := metaCols[col]
		if !ok {
			return nil, errAt(c.pos, "unknown column %q in WHERE (metadata columns: %s)",
				col, strings.Join(colNames(), ", "))
		}
		if c.isBool {
			return nil, errAt(c.pos, "%s compares against an integer", col)
		}
		t.metas = append(t.metas, metaCond{
			col: col, op: op, eq: op == "=", intFn: fn, num: c.num,
		})
		if c.num.isParam() {
			t.metaParams = true
		}
	}
	keep, desc, err := t.buildKeep(nil)
	if err != nil {
		return nil, err
	}
	p.keep, p.targetDesc = keep, desc
	if len(preds) > 0 {
		p.pred = preds
		p.predDesc = strings.Join(predDescs, " AND ")
	}

	// Shape: aggregation, topk, or filter. Each returns the ranking/
	// aggregation CP expression (nil for filter plans) so its
	// parameter sites can be registered.
	var score *cpExpr
	switch {
	case stmt.groupBy != "":
		score, err = db.planAgg(stmt, p)
	case stmt.order.set:
		score, err = db.planTopK(stmt, p)
	default:
		err = db.planFilter(stmt, p)
	}
	if err != nil {
		return nil, err
	}
	if score != nil {
		p.scoreTerms = []core.CPTerm{db.term(score)}
		p.scoreDesc = score.String()
		if score.hasParams() {
			cp := score
			t.binders = append(t.binders, func(p *plan, args []float64) error {
				vr, desc, err := cp.bindRange(args)
				if err != nil {
					return err
				}
				p.scoreTerms[0].Range = vr
				p.scoreTerms[0].Name = desc
				p.scoreDesc = desc
				return nil
			})
		}
	}
	return t, nil
}

func colNames() []string {
	return []string{"mask_id", "image_id", "model_id", "mask_type", "label", "pred", "modified", "mispredicted"}
}

func (db *DB) planFilter(stmt *selectStmt, p *plan) error {
	p.kind = planFilter
	if len(stmt.cols) != 1 || stmt.cols[0].name != "mask_id" {
		c := stmt.cols[0]
		return errAt(c.pos, "a filter query selects exactly mask_id")
	}
	if p.pred == nil {
		p.pred = core.And{}
		p.predDesc = "true"
	}
	return nil
}

func (db *DB) planTopK(stmt *selectStmt, p *plan) (*cpExpr, error) {
	p.kind = planTopK
	p.order = orderOf(stmt.order)

	// The ranking expression: inline CP or an alias of a selected CP.
	var score *cpExpr
	if stmt.order.cp != nil {
		score = stmt.order.cp
	} else {
		for _, c := range stmt.cols {
			if c.cp != nil && c.agg == "" && strings.EqualFold(c.alias, stmt.order.ident) {
				score = c.cp
				break
			}
		}
		if score == nil {
			return nil, errAt(stmt.order.pos,
				"ORDER BY %s does not name a selected CP(...) alias", stmt.order.ident)
		}
		p.orderBy = stmt.order.ident
	}
	hasMaskID := false
	for _, c := range stmt.cols {
		switch {
		case c.name == "mask_id":
			hasMaskID = true
		case c.cp != nil && c.agg == "":
			// Selected CP columns are allowed; only the ORDER BY one
			// is materialized as the score.
		default:
			return nil, errAt(c.pos, "a topk query selects mask_id (plus optional CP(...) aliases)")
		}
	}
	if !hasMaskID {
		c := stmt.cols[0]
		return nil, errAt(c.pos, "a topk query must select mask_id")
	}
	return score, nil
}

func (db *DB) planAgg(stmt *selectStmt, p *plan) (*cpExpr, error) {
	p.kind = planAgg
	p.groupBy = stmt.groupBy
	key, ok := metaCols[stmt.groupBy]
	if !ok || stmt.groupBy == "mask_id" {
		return nil, errAt(stmt.groupPos,
			"cannot GROUP BY %q (group by image_id, model_id, label, pred, or mask_type)", stmt.groupBy)
	}
	p.groupKey = key

	var aggCol *selCol
	for i := range stmt.cols {
		c := &stmt.cols[i]
		switch {
		case c.agg != "":
			if aggCol != nil {
				return nil, errAt(c.pos, "an aggregation query supports exactly one aggregate")
			}
			aggCol = c
		case c.name == stmt.groupBy:
			// The group key may be projected.
		default:
			return nil, errAt(c.pos, "an aggregation query selects the group key and one aggregate")
		}
	}
	if aggCol == nil {
		return nil, errAt(stmt.groupPos, "GROUP BY needs an aggregate (MEAN, SUM, MIN, MAX) in the SELECT list")
	}
	switch aggCol.agg {
	case "MEAN":
		p.agg = core.Mean
	case "SUM":
		p.agg = core.Sum
	case "MIN":
		p.agg = core.Min
	case "MAX":
		p.agg = core.Max
	}
	p.aggAlias = aggCol.alias
	if p.aggAlias == "" {
		p.aggAlias = strings.ToLower(aggCol.agg)
	}

	if stmt.order.set {
		if stmt.order.cp != nil || !strings.EqualFold(stmt.order.ident, p.aggAlias) {
			return nil, errAt(stmt.order.pos,
				"an aggregation query orders by its aggregate alias %q", p.aggAlias)
		}
		p.order = orderOf(stmt.order)
		p.orderBy = stmt.order.ident
	} else {
		p.order = core.Desc
		p.orderBy = p.aggAlias
	}
	return aggCol.cp, nil
}

// execBatch runs a slice of compiled plans as one batched workload,
// mirroring exec's staging: filter stages (whole filter plans plus the
// pre-filters of ranking plans) form the first core.ExecBatch round,
// ranking stages the second. Filter plans with a LIMIT keep exec's
// chunked early-exit scan (run after the shared round, so a
// configured cache still serves their overlapping masks) — batching
// must never do more I/O for them than running them alone would.
func (db *DB) execBatch(ctx context.Context, env *core.Env, plans []*plan, qo queryOptions) ([]*Result, error) {
	if db.coord != nil {
		// Distributed batch: each statement scatter-gathers across the
		// shard nodes on its own — the node-side work is already
		// parallel, and per-statement execution keeps the batch
		// byte-identical to running its statements one by one (the
		// batch API's contract; local batching is an I/O-sharing trick,
		// not a semantic one).
		results := make([]*Result, len(plans))
		for i, p := range plans {
			r, err := db.run(ctx, p, qo)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}
	results := make([]*Result, len(plans))
	targets := make([][]int64, len(plans))
	nConsidered := make([]int, len(plans))
	done := make([]bool, len(plans))

	// One catalog snapshot for the whole batch: every statement resolves
	// its targets against the same pinned id space, so concurrent
	// Appends never make two statements of one batch see different
	// datasets.
	view := db.cat.View()
	var fq []core.BatchQuery
	var fqPlan []int
	var limited []int
	for pi, p := range plans {
		results[pi] = &Result{Kind: p.kind}
		targets[pi] = view.MaskIDs(p.keep)
		nConsidered[pi] = len(targets[pi])
		if p.k == 0 {
			// LIMIT 0 is a valid, empty query — don't touch any mask.
			// As in exec, the empty result lands in the field matching
			// the plan kind.
			results[pi].setEmpty()
			done[pi] = true
			continue
		}
		if qo.eagerBounds {
			if err := db.ensureBounds(ctx, env, targets[pi]); err != nil {
				return nil, err
			}
		}
		if p.kind == planFilter && len(p.filterTerms) == 0 {
			// Metadata-only predicate: the catalog already answered it.
			ids := targets[pi]
			if p.k > 0 && len(ids) > p.k {
				ids = ids[:p.k]
			}
			results[pi].IDs = ids
			results[pi].Stats.Targets = len(targets[pi])
			done[pi] = true
			continue
		}
		if p.kind == planFilter && p.k > 0 {
			// LIMIT'd filter: keep exec's chunked early-exit scan
			// instead of verifying every undecided target just to
			// throw the tail away. Runs after the shared round so a
			// configured cache still serves its overlapping masks.
			limited = append(limited, pi)
			continue
		}
		if len(p.filterTerms) > 0 {
			fq = append(fq, core.BatchQuery{
				Kind: core.BatchFilter, Targets: targets[pi],
				Terms: p.filterTerms, Pred: p.pred,
			})
			fqPlan = append(fqPlan, pi)
		}
	}
	if len(fq) > 0 {
		rs, err := core.ExecBatch(ctx, env, fq)
		if err != nil {
			return nil, err
		}
		for i := range rs {
			pi := fqPlan[i]
			p := plans[pi]
			results[pi].Stats.Merge(rs[i].Stats)
			if p.kind == planFilter {
				ids := rs[i].IDs
				if p.k > 0 && len(ids) > p.k {
					ids = ids[:p.k]
				}
				results[pi].IDs = ids
				done[pi] = true
			} else {
				// Pre-filter of a ranking plan: the ranking round runs
				// on the survivors.
				targets[pi] = rs[i].IDs
			}
		}
	}

	for _, pi := range limited {
		if err := db.filterLimited(ctx, env, plans[pi], targets[pi], results[pi]); err != nil {
			return nil, err
		}
		done[pi] = true
	}

	var rq []core.BatchQuery
	var rqPlan []int
	for pi, p := range plans {
		if done[pi] {
			continue
		}
		switch p.kind {
		case planTopK:
			rq = append(rq, core.BatchQuery{
				Kind: core.BatchTopK, Targets: targets[pi],
				Terms: p.scoreTerms, Score: 0, K: p.k, Order: p.order,
			})
		case planAgg:
			rq = append(rq, core.BatchQuery{
				Kind: core.BatchAgg, Groups: groupTargets(view, p, targets[pi]),
				Terms: p.scoreTerms, Score: 0, Agg: p.agg, K: p.k, Order: p.order,
			})
		default:
			return nil, fmt.Errorf("masksearch: unknown plan kind %v", p.kind)
		}
		rqPlan = append(rqPlan, pi)
	}
	if len(rq) > 0 {
		rs, err := core.ExecBatch(ctx, env, rq)
		if err != nil {
			return nil, err
		}
		for i := range rs {
			pi := rqPlan[i]
			results[pi].Stats.Merge(rs[i].Stats)
			results[pi].Ranked = rs[i].Ranked
			if len(plans[pi].filterTerms) > 0 {
				// Both stages counted the prefilter survivors; the
				// query considered each candidate mask once.
				results[pi].Stats.Targets = nConsidered[pi]
			}
		}
	}
	return results, nil
}

func orderOf(o orderSpec) core.Order {
	if o.desc {
		return core.Desc
	}
	return core.Asc
}

// explain renders the compiled plan (placeholders as ?N for unbound
// templates, their bound values otherwise).
func (p *plan) explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %s\n", p.kind)
	fmt.Fprintf(&b, "source: masks\n")
	if p.storage != "" {
		fmt.Fprintf(&b, "storage: %s\n", p.storage)
	}
	fmt.Fprintf(&b, "targets: %s\n", p.targetDesc)
	switch p.kind {
	case planFilter:
		b.WriteString("terms:\n")
		for i, d := range p.filterDescs {
			fmt.Fprintf(&b, "  T%d = %s\n", i, d)
		}
		if len(p.filterDescs) == 0 {
			b.WriteString("  (none — metadata only)\n")
		}
		fmt.Fprintf(&b, "predicate: %s\n", p.predDesc)
		if p.kDesc != "" {
			fmt.Fprintf(&b, "limit: %s\n", p.kDesc)
		} else if p.k >= 0 {
			fmt.Fprintf(&b, "limit: %d\n", p.k)
		}
		b.WriteString("output: mask_id\n")
	case planTopK:
		p.explainPrefilter(&b)
		fmt.Fprintf(&b, "terms:\n  T0 = %s\n", p.scoreDesc)
		fmt.Fprintf(&b, "order by: %s %s\n", p.orderName(), p.order)
		p.explainLimit(&b)
		b.WriteString("output: mask_id, score\n")
	case planAgg:
		p.explainPrefilter(&b)
		fmt.Fprintf(&b, "group by: %s\n", p.groupBy)
		fmt.Fprintf(&b, "terms:\n  T0 = %s\n", p.scoreDesc)
		fmt.Fprintf(&b, "aggregate: %s = %s(T0)\n", p.aggAlias, p.agg)
		fmt.Fprintf(&b, "order by: %s %s\n", p.orderBy, p.order)
		p.explainLimit(&b)
		fmt.Fprintf(&b, "output: %s, %s\n", p.groupBy, p.aggAlias)
	}
	return b.String()
}

func (p *plan) orderName() string {
	if p.orderBy != "" {
		return p.orderBy
	}
	return "T0"
}

func (p *plan) explainPrefilter(b *strings.Builder) {
	if len(p.filterTerms) == 0 {
		return
	}
	b.WriteString("pre-filter:\n")
	for i, d := range p.filterDescs {
		fmt.Fprintf(b, "  T%d = %s\n", i, d)
	}
	fmt.Fprintf(b, "  predicate: %s\n", p.predDesc)
	b.WriteString("  (ranking runs on the filtered targets)\n")
}

func (p *plan) explainLimit(b *strings.Builder) {
	switch {
	case p.kDesc != "":
		fmt.Fprintf(b, "limit: %s\n", p.kDesc)
	case p.k >= 0:
		fmt.Fprintf(b, "limit: %d\n", p.k)
	default:
		b.WriteString("limit: all\n")
	}
}
