package masksearch

import (
	"container/list"
	"context"
	"fmt"
	"iter"
	"math"
	"sync"
	"sync/atomic"
)

// BindError reports a failed parameter binding: a wrong argument
// count, an inconvertible argument type, or a value outside its
// site's legal range. Param is the 1-based placeholder index (0 when
// the error is not tied to one site, e.g. an arity mismatch).
type BindError struct {
	Param int
	Msg   string
}

func (e *BindError) Error() string {
	if e.Param > 0 {
		return fmt.Sprintf("bind ?%d: %s", e.Param, e.Msg)
	}
	return "bind: " + e.Msg
}

// coerceArg converts one bind argument to the engine's float64 value
// domain. All Go integer and float types are accepted; everything
// else (and non-finite floats) is rejected at bind time rather than
// surfacing as a wrong answer later.
func coerceArg(a any) (float64, error) {
	var v float64
	switch x := a.(type) {
	case int:
		v = float64(x)
	case int8:
		v = float64(x)
	case int16:
		v = float64(x)
	case int32:
		v = float64(x)
	case int64:
		v = float64(x)
	case uint:
		v = float64(x)
	case uint8:
		v = float64(x)
	case uint16:
		v = float64(x)
	case uint32:
		v = float64(x)
	case uint64:
		v = float64(x)
	case float32:
		v = float64(x)
	case float64:
		v = x
	default:
		return 0, fmt.Errorf("unsupported argument type %T (numeric types only)", a)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("argument must be a finite number, got %v", v)
	}
	return v, nil
}

// queryOptions is the resolved per-query tuning state. The zero value
// inherits everything from the DB's Options.
type queryOptions struct {
	workers     *int // nil: inherit Options.Workers
	eagerBounds bool
	readOnlyIdx bool
	degradedOK  bool
}

// QueryOpt tunes one query execution without reopening the DB.
// QueryOpts may be passed alongside bind arguments anywhere in the
// args list of Query, QueryBatch, Rows and Explain; they are
// extracted before parameter binding. Results are identical under
// every option — only scheduling, I/O and index growth change.
type QueryOpt func(*queryOptions)

// WithWorkers overrides Options.Workers for one call: 0 uses
// runtime.GOMAXPROCS(0), 1 forces the sequential engine, n > 1 sizes
// the pool to n. Negative counts are rejected at execution time.
func WithWorkers(n int) QueryOpt {
	return func(qo *queryOptions) { qo.workers = &n }
}

// WithEagerBounds builds CHI bounds for every target of this query
// before the filter stage runs — the per-query form of
// Options.EagerIndex ("vanilla MaskSearch"). The one-time build cost
// is charged to this call's ReadStats; subsequent queries inherit the
// grown index.
func WithEagerBounds() QueryOpt {
	return func(qo *queryOptions) { qo.eagerBounds = true }
}

// WithoutIndexUpdates serves this query read-only: masks verified for
// it are not observed into the incremental CHI index, so the shared
// index (and the persisted chi.idx) is untouched. Useful for one-off
// probes that should not spend memory growing the index. Combining it
// with WithEagerBounds — whose whole point is growing the index — is
// rejected at execution time.
func WithoutIndexUpdates() QueryOpt {
	return func(qo *queryOptions) { qo.readOnlyIdx = true }
}

// WithDegradedResults lets a query on a distributed DB return a
// partial answer when a shard's every route (primary, replicas,
// retries) is down, instead of failing with ErrShardUnavailable. A
// degraded answer sets Result.Degraded and lists the missing shards;
// degradation never happens silently. On a local DB this option is a
// no-op — local execution has no shard to lose.
func WithDegradedResults() QueryOpt {
	return func(qo *queryOptions) { qo.degradedOK = true }
}

// splitArgs separates QueryOpt values from bind parameters and
// coerces the parameters to the engine's value domain.
func splitArgs(args []any) ([]float64, queryOptions, error) {
	var qo queryOptions
	vals := make([]float64, 0, len(args))
	for _, a := range args {
		if opt, ok := a.(QueryOpt); ok {
			opt(&qo)
			continue
		}
		v, err := coerceArg(a)
		if err != nil {
			return nil, qo, &BindError{Param: len(vals) + 1, Msg: err.Error()}
		}
		vals = append(vals, v)
	}
	return vals, qo, nil
}

// Stmt is a prepared msquery statement: the SQL is lexed, parsed and
// planned once, and each execution only binds parameter values into
// the cached plan template. A Stmt is immutable and safe for
// concurrent use; it holds no resources beyond its DB, so it has no
// Close. Statements obtained from one DB are invalid after that DB
// closes.
type Stmt struct {
	db   *DB
	sql  string
	tmpl *planTemplate
}

// SQL returns the statement's source text.
func (s *Stmt) SQL() string { return s.sql }

// NumParams reports how many `?` placeholders the statement binds.
func (s *Stmt) NumParams() int { return s.tmpl.nParams }

// Check validates args against the statement — arity, types, and the
// per-site range checks — without executing anything.
func (s *Stmt) Check(args ...any) error {
	vals, _, err := splitArgs(args)
	if err != nil {
		return err
	}
	_, err = s.tmpl.bind(vals)
	return err
}

// Query binds args and executes the statement. args holds one value
// per `?` placeholder in source order; QueryOpt values may be
// interleaved and apply to this call only.
func (s *Stmt) Query(ctx context.Context, args ...any) (*Result, error) {
	vals, qo, err := splitArgs(args)
	if err != nil {
		return nil, err
	}
	p, err := s.tmpl.bind(vals)
	if err != nil {
		return nil, err
	}
	env, err := s.db.envFor(qo)
	if err != nil {
		return nil, err
	}
	if err := s.db.beginOp(); err != nil {
		return nil, err
	}
	defer s.db.endOp()
	return s.db.query(ctx, env, s.db.cat.View(), p, qo)
}

// QueryBatch executes the statement once per argument set, scheduling
// all executions as one batched workload (the §4.3 parameter sweep as
// one DB.QueryBatch: a mask needed by several bindings is loaded once
// per round instead of once per binding). Results are byte-identical
// to calling Query per set. QueryOpt values — in opts or interleaved
// with any argument set — apply to the whole batch.
func (s *Stmt) QueryBatch(ctx context.Context, argSets [][]any, opts ...QueryOpt) ([]*Result, error) {
	var qo queryOptions
	for _, o := range opts {
		o(&qo)
	}
	plans := make([]*plan, len(argSets))
	for i, args := range argSets {
		vals, setQO, err := splitArgs(args)
		if err != nil {
			return nil, fmt.Errorf("argument set %d: %w", i+1, err)
		}
		if setQO.workers != nil {
			qo.workers = setQO.workers
		}
		qo.eagerBounds = qo.eagerBounds || setQO.eagerBounds
		qo.readOnlyIdx = qo.readOnlyIdx || setQO.readOnlyIdx
		qo.degradedOK = qo.degradedOK || setQO.degradedOK
		p, err := s.tmpl.bind(vals)
		if err != nil {
			return nil, fmt.Errorf("argument set %d: %w", i+1, err)
		}
		plans[i] = p
	}
	env, err := s.db.envFor(qo)
	if err != nil {
		return nil, err
	}
	if err := s.db.beginOp(); err != nil {
		return nil, err
	}
	defer s.db.endOp()
	return s.db.execBatch(ctx, env, plans, qo)
}

// Explain renders the compiled plan without executing anything. With
// no args a parameterized statement renders its unbound template
// (placeholders shown as ?N); with a full argument set it renders the
// bound plan.
func (s *Stmt) Explain(args ...any) (string, error) {
	vals, _, err := splitArgs(args)
	if err != nil {
		return "", err
	}
	if len(vals) == 0 && s.tmpl.nParams > 0 {
		return s.tmpl.base.explain(), nil
	}
	p, err := s.tmpl.bind(vals)
	if err != nil {
		return "", err
	}
	return p.explain(), nil
}

// Row is one streamed query result: a mask id for filter plans, a
// mask id (or group key) with its ranking value for topk and
// aggregation plans.
type Row struct {
	ID    int64
	Score float64
}

// Rows binds args and executes the statement as a stream. Filter
// matches are emitted incrementally in catalog order as the chunked
// scan decides them, so breaking out of the loop stops the scan and
// skips the unscanned tail's mask loads entirely — strictly less I/O
// than Query for a consumer that stops early, byte-identical results
// for one that drains the stream. Ranking and aggregation plans
// cannot decide any row before scoring all candidates, so their rows
// stream only after the plan completes. Bind and execution errors are
// yielded as the (zero Row, error) element terminating the sequence.
func (s *Stmt) Rows(ctx context.Context, args ...any) iter.Seq2[Row, error] {
	return func(yield func(Row, error) bool) {
		vals, qo, err := splitArgs(args)
		if err != nil {
			yield(Row{}, err)
			return
		}
		p, err := s.tmpl.bind(vals)
		if err != nil {
			yield(Row{}, err)
			return
		}
		// The close guard is held for the whole iteration: a stream's
		// loads happen while the consumer ranges, so Close must drain
		// the iterator like any other in-flight query.
		if err := s.db.beginOp(); err != nil {
			yield(Row{}, err)
			return
		}
		defer s.db.endOp()
		s.db.stream(ctx, p, qo, yield)
	}
}

// planCache is the DB's bounded LRU of compiled plan templates, keyed
// by statement text. It makes repeated raw Query calls of the same
// shape amortize their parse+plan work exactly like an explicit
// Prepare.
type planCache struct {
	mu   sync.Mutex
	cap  int
	ll   *list.List // most recent at front; values are *planCacheEnt
	m    map[string]*list.Element
	hits atomic.Int64
	miss atomic.Int64
}

type planCacheEnt struct {
	sql  string
	stmt *Stmt
}

func newPlanCache(capacity int) *planCache {
	c := &planCache{cap: capacity}
	if capacity > 0 {
		c.ll = list.New()
		c.m = make(map[string]*list.Element, capacity)
	}
	return c
}

func (c *planCache) get(sql string) *Stmt {
	if c.cap <= 0 {
		c.miss.Add(1)
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[sql]
	if !ok {
		c.miss.Add(1)
		return nil
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*planCacheEnt).stmt
}

func (c *planCache) put(sql string, stmt *Stmt) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[sql]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*planCacheEnt).stmt = stmt
		return
	}
	c.m[sql] = c.ll.PushFront(&planCacheEnt{sql: sql, stmt: stmt})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*planCacheEnt).sql)
	}
}

func (c *planCache) stats() PlanCacheStats {
	st := PlanCacheStats{Hits: c.hits.Load(), Misses: c.miss.Load()}
	if c.cap > 0 {
		c.mu.Lock()
		st.Entries = c.ll.Len()
		c.mu.Unlock()
	}
	return st
}

// PlanCacheStats reports the DB's plan-template cache traffic since
// open. Hits are Query/Prepare calls that skipped parse+plan.
type PlanCacheStats struct {
	Entries int
	Hits    int64
	Misses  int64
}
