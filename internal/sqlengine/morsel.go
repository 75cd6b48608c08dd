package sqlengine

// Morsel-driven parallel execution for order-insensitive single-table SELECTs.
//
// The table snapshot is split into fixed-size contiguous row ranges (morsels,
// see storage.MorselRanges); a bounded worker pool runs the scan → filter →
// project (or partial-aggregate) pipeline per morsel, and the sink merges the
// per-morsel results IN MORSEL ORDER. Because morsels partition the snapshot
// contiguously, morsel-order merge reproduces the sequential scan's row order
// exactly: projected rows come out byte-identical, group first-seen order and
// MIN/MAX tie winners match, and par.ForEachCtx's lowest-index-error rule
// surfaces the same error a sequential left-to-right scan would have hit
// first.
//
// Which statements planSelect sends here (everything else runs the
// sequential pipeline):
//
//   - single FROM entry resolving to a base table (views materialize anyway)
//     of at least defaultVecThreshold rows, with more than one worker — or
//     any size under VecConfig.Force;
//   - no index pushdown chosen (an index probe is already sub-linear — fanning
//     out a full scan would be a de-optimization);
//   - non-aggregating statements must have no ORDER BY, no DISTINCT and no
//     TOP: sort would re-materialize anyway, DISTINCT's first-occurrence
//     dedup state does not merge by morsel, and TOP must stop the scan once
//     it has its rows instead of scanning every morsel;
//   - aggregating statements must use only mergeable aggregates — COUNT, SUM,
//     AVG, MIN, MAX without DISTINCT. STDEV/VAR are two-pass over the full
//     group and DISTINCT aggregates need global dedup state, so both stay
//     sequential. (TOP and ORDER BY are fine here: the aggregation tail
//     materializes groups before either applies.)
//
// Floating-point caveat: merging per-morsel partial sums reassociates FP
// addition, so SUM/AVG over doubles can differ from the sequential result in
// the last ulp. Integer sums are exact (isum), and the differential oracle's
// fixtures use double values that are exact in binary FP, so the three-way
// comparison stays byte-identical.

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rowset"
	"repro/internal/storage"
)

// VecConfig tunes the vectorized/morsel execution paths. The zero value means
// defaults: GOMAXPROCS workers, storage.DefaultMorselSize morsels, and
// parallelism only for tables of at least defaultVecThreshold rows.
type VecConfig struct {
	// Workers bounds the scan worker pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// MorselSize is the scan range handed to one worker at a time; <= 0 means
	// storage.DefaultMorselSize.
	MorselSize int
	// Force takes the morsel path regardless of table size and worker count.
	// The differential tests use it to exercise the parallel operators on
	// small fixtures and single-core hosts.
	Force bool
}

// defaultVecThreshold is the table size below which a parallel scan is not
// worth the goroutine fan-out and per-morsel pipeline setup.
const defaultVecThreshold = 4096

func (e *Engine) vecWorkers() int {
	if e.Vec.Workers > 0 {
		return e.Vec.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (e *Engine) vecMorselSize() int {
	if e.Vec.MorselSize > 0 {
		return e.Vec.MorselSize
	}
	return storage.DefaultMorselSize
}

// runMorsel executes a parallel plan. Its span shape mirrors the sequential
// pipeline (scan → filter → group-by or project) so EXPLAIN ANALYZE and
// DM_TRACE trees stay comparable; the scan label additionally records the
// fan-out.
func (e *Engine) runMorsel(ctx context.Context, t *obs.Trace, p *selectPlan) (*rowset.Rowset, error) {
	spScan := t.StartSpan("scan", p.scanLabel(0))
	spScan.SetRows(int64(len(p.scans[0].rows)))
	t.EndSpan(spScan)
	var spF *obs.Span
	if p.sel.Where != nil {
		spF = t.StartSpan("filter", "")
		t.EndSpan(spF)
	}
	e.parScans.Inc()
	e.morsels.Add(int64(len(p.morsels)))
	if needsAggregate(p.sel) {
		return e.morselAggregate(ctx, t, p, spF)
	}
	return e.morselProject(ctx, t, p, spF)
}

// mergeableAggregates reports whether every aggregate call site in sel
// computes from mergeable partial states. Anything else — including malformed
// statements, which the sequential path must report — keeps the statement
// sequential.
func mergeableAggregates(sel *SelectStmt) bool {
	aggs, err := statementAggs(sel)
	if err != nil {
		return false // SELECT * with aggregation: sequential path reports it
	}
	return aggsMergeable(aggs)
}

// aggsMergeable: COUNT/SUM/AVG/MIN/MAX without DISTINCT, with well-formed
// arguments, compute from mergeable partial states (and, equivalently, in one
// streaming pass without retaining group rows).
func aggsMergeable(aggs []*FuncCall) bool {
	for _, f := range aggs {
		if f.Distinct {
			return false
		}
		switch f.Name {
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
		default:
			return false
		}
		if f.Star {
			if f.Name != "COUNT" {
				return false // e.g. SUM(*): sequential path reports it
			}
			continue
		}
		if len(f.Args) != 1 {
			return false
		}
	}
	return true
}

// valuer produces one expression's value for a row. Plain column references
// compile to a direct index (Eval's ColumnRef case is exactly env.Row[ord]
// when resolution succeeds); everything else falls back to Eval. The closure
// owns its Env, so each goroutine must compile its own valuers.
type valuer func(r rowset.Row) (rowset.Value, error)

func compileValuer(e Expr, schema *rowset.Schema) valuer {
	if cr, ok := e.(*ColumnRef); ok {
		if ord, err := ResolveColumn(schema, cr.Qualifier, cr.Name); err == nil {
			return func(r rowset.Row) (rowset.Value, error) { return r[ord], nil }
		}
		// Unresolvable references still compile to the Eval fallback: the
		// error must surface per evaluated row (empty inputs succeed).
	}
	env := &Env{Schema: schema}
	return func(r rowset.Row) (rowset.Value, error) {
		env.Row = r
		return Eval(e, env)
	}
}

// morselPipeline opens morsel mi's operator chain: a slice scan over the
// morsel's snapshot range, plus the residual filter when the statement has a
// WHERE. The chain reuses the exact sequential operators (including their
// compiled predicates), so per-morsel semantics are identical by
// construction.
func (p *selectPlan) morselPipeline(mi int) rowset.BatchCursor {
	cs, m := p.scans[0], p.morsels[mi]
	var cur rowset.BatchCursor = newSliceCursor(cs.schema, cs.rows[m.Lo:m.Hi])
	if p.sel.Where != nil {
		cur = newFilterCursor(cur, p.residual)
	}
	return cur
}

// morselProject is the non-aggregating morsel path: scan → filter → project
// per morsel, merged in morsel order.
func (e *Engine) morselProject(ctx context.Context, t *obs.Trace, p *selectPlan, spF *obs.Span) (*rowset.Rowset, error) {
	schema := p.scans[0].schema
	items, err := expandStars(p.sel.Items, schema)
	if err != nil {
		return nil, err
	}
	names := outputNames(items)
	spProj := t.StartSpan("project", "")
	t.EndSpan(spProj)

	outs := make([][]rowset.Row, len(p.morsels))
	err = par.ForEachCtx(ctx, len(p.morsels), p.workers, func(mi int) error {
		cur := p.morselPipeline(mi)
		proj, err := newProjectCursor(cur, items, names, nil)
		if err != nil {
			cur.Close() //nolint:errcheck // already failing
			return err
		}
		m := p.morsels[mi]
		rows, batches, err := drainRows(proj, m.Hi-m.Lo)
		e.batches.Add(batches)
		if err != nil {
			return err
		}
		outs[mi] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}

	total := 0
	for _, part := range outs {
		total += len(part)
	}
	rows := make([]rowset.Row, 0, total)
	for _, part := range outs {
		rows = append(rows, part...)
	}
	spF.SetRows(int64(total))
	spProj.SetRows(int64(total))
	outSchema, err := outputSchema(items, names, schema, rows)
	if err != nil {
		return nil, err
	}
	return rowset.Adopt(outSchema, rows), nil
}

// aggState is one aggregate call site's mergeable partial state within one
// group: the non-NULL count and running sums for COUNT/SUM/AVG, the running
// winner for MIN/MAX.
type aggState struct {
	n      int64 // non-NULL values observed
	fsum   float64
	isum   int64
	allInt bool
	best   rowset.Value // MIN/MAX candidate; nil until a value arrives
}

// observe folds one evaluated argument value into the state. The caller skips
// COUNT(*) sites entirely (the group's row count covers them) and passes the
// precompiled argument valuer's result here.
func (s *aggState) observe(f *FuncCall, v rowset.Value) error {
	if v == nil {
		return nil
	}
	s.n++
	switch f.Name {
	case "MIN":
		if s.best == nil || rowset.Compare(v, s.best) < 0 {
			s.best = v
		}
	case "MAX":
		if s.best == nil || rowset.Compare(v, s.best) > 0 {
			s.best = v
		}
	case "SUM", "AVG":
		fv, ok := rowset.ToFloat(v)
		if !ok {
			return fmt.Errorf("sqlengine: %s requires numeric values, got %s", f.Name, rowset.TypeOf(v))
		}
		s.fsum += fv
		if iv, ok := v.(int64); ok {
			s.isum += iv
		} else {
			s.allInt = false
		}
	}
	return nil
}

// merge folds o — partial state from a LATER morsel — into s. Keeping the
// earlier side's best on ties reproduces the sequential scan's
// strict-improvement rule for MIN/MAX.
func (s *aggState) merge(o *aggState, f *FuncCall) {
	s.n += o.n
	s.fsum += o.fsum
	s.isum += o.isum
	s.allInt = s.allInt && o.allInt
	if o.best != nil {
		if s.best == nil {
			s.best = o.best
		} else if c := rowset.Compare(o.best, s.best); (f.Name == "MIN" && c < 0) || (f.Name == "MAX" && c > 0) {
			s.best = o.best
		}
	}
}

// value finalizes the state, mirroring computeAggregate for the mergeable
// subset: COUNT(*) is the group's row count, empty SUM/AVG/MIN/MAX are NULL,
// and an all-integer SUM stays integral.
func (s *aggState) value(f *FuncCall, groupRows int64) rowset.Value {
	switch f.Name {
	case "COUNT":
		if f.Star {
			return groupRows
		}
		return s.n
	case "MIN", "MAX":
		return s.best
	case "SUM":
		if s.n == 0 {
			return nil
		}
		if s.allInt {
			return s.isum
		}
		return s.fsum
	default: // AVG
		if s.n == 0 {
			return nil
		}
		return s.fsum / float64(s.n)
	}
}

// pgroup is one group's partial aggregation: its first row seen (within the
// morsel; the merge keeps the earliest morsel's), the row count, and one
// aggState per aggregate call site.
type pgroup struct {
	first  rowset.Row
	count  int64
	states []aggState
}

func newPgroup(first rowset.Row, naggs int) *pgroup {
	pg := &pgroup{first: first, states: make([]aggState, naggs)}
	for i := range pg.states {
		pg.states[i].allInt = true
	}
	return pg
}

func (g *pgroup) merge(o *pgroup, aggs []*FuncCall) {
	g.count += o.count
	for i, f := range aggs {
		g.states[i].merge(&o.states[i], f)
	}
}

// aggAccum streams rows into per-group mergeable partial states. Group-key
// expressions and aggregate arguments are compiled once (direct column index
// for plain references), so the per-row loop does no name resolution. Both
// the sequential streaming aggregate and each morsel worker use one; it is
// not goroutine-safe — one accumulator per goroutine.
type aggAccum struct {
	aggs   []*FuncCall
	keyFns []valuer
	argFns []valuer // nil entry = COUNT(*): no per-row work
	groups map[string]*pgroup
	order  []string
	rows   int64
	keyBuf []byte
}

func newAggAccum(sel *SelectStmt, aggs []*FuncCall, schema *rowset.Schema) *aggAccum {
	a := &aggAccum{
		aggs:   aggs,
		keyFns: make([]valuer, len(sel.GroupBy)),
		argFns: make([]valuer, len(aggs)),
		groups: make(map[string]*pgroup),
	}
	for i, g := range sel.GroupBy {
		a.keyFns[i] = compileValuer(g, schema)
	}
	for i, f := range aggs {
		if !f.Star {
			a.argFns[i] = compileValuer(f.Args[0], schema)
		}
	}
	return a
}

func (a *aggAccum) observe(r rowset.Row) error {
	a.keyBuf = a.keyBuf[:0]
	for _, kf := range a.keyFns {
		v, err := kf(r)
		if err != nil {
			return err
		}
		a.keyBuf = rowset.AppendKey(a.keyBuf, v)
		a.keyBuf = append(a.keyBuf, '|')
	}
	grp, ok := a.groups[string(a.keyBuf)]
	if !ok {
		grp = newPgroup(r, len(a.aggs))
		k := string(a.keyBuf)
		a.groups[k] = grp
		a.order = append(a.order, k)
	}
	grp.count++
	a.rows++
	for ai, fn := range a.argFns {
		if fn == nil {
			continue
		}
		v, err := fn(r)
		if err != nil {
			return err
		}
		if err := grp.states[ai].observe(a.aggs[ai], v); err != nil {
			return err
		}
	}
	return nil
}

// finish applies the empty-input rule (aggregation without GROUP BY over zero
// rows yields one all-NULL group) and finalizes every state into the
// finishedGroup form the shared aggregation tail consumes.
func (a *aggAccum) finish(sel *SelectStmt, schema *rowset.Schema) []finishedGroup {
	if len(sel.GroupBy) == 0 && len(a.order) == 0 {
		a.groups[""] = newPgroup(make(rowset.Row, schema.Len()), len(a.aggs))
		a.order = append(a.order, "")
	}
	groups := make([]finishedGroup, 0, len(a.order))
	for _, k := range a.order {
		pg := a.groups[k]
		vals := make(map[*FuncCall]rowset.Value, len(a.aggs))
		for ai, f := range a.aggs {
			vals[f] = pg.states[ai].value(f, pg.count)
		}
		groups = append(groups, finishedGroup{first: pg.first, vals: vals})
	}
	return groups
}

// morselAggregate is the aggregating morsel path: each worker builds partial
// per-group states over its morsels; the sink merges them in morsel order
// (first-seen group order and representative rows therefore match the
// sequential scan), finalizes each aggregate, and hands the groups to the
// shared finishing stage.
func (e *Engine) morselAggregate(ctx context.Context, t *obs.Trace, p *selectPlan, spF *obs.Span) (*rowset.Rowset, error) {
	sel, schema := p.sel, p.scans[0].schema
	aggs, err := statementAggs(sel)
	if err != nil {
		return nil, err // unreachable: mergeableAggregates vetted the statement
	}
	spAgg := t.StartSpan("group-by", "")
	defer t.EndSpan(spAgg)

	parts := make([]*aggAccum, len(p.morsels))
	err = par.ForEachCtx(ctx, len(p.morsels), p.workers, func(mi int) error {
		acc := newAggAccum(sel, aggs, schema)
		parts[mi] = acc
		return e.drainInto(p.morselPipeline(mi), acc.observe)
	})
	if err != nil {
		return nil, err
	}

	// Merge the per-morsel partials in morsel order into the first one, so the
	// merged accumulator's first-seen group order matches the sequential scan.
	if len(parts) == 0 { // empty snapshot under Force: no morsels at all
		parts = []*aggAccum{newAggAccum(sel, aggs, schema)}
	}
	sink := parts[0]
	var rowsIn int64
	for _, part := range parts {
		rowsIn += part.rows
		if part == sink {
			continue
		}
		for _, k := range part.order {
			pg := part.groups[k]
			if got, ok := sink.groups[k]; ok {
				got.merge(pg, aggs)
				continue
			}
			sink.groups[k] = pg
			sink.order = append(sink.order, k)
		}
	}
	spF.SetRows(rowsIn)

	out, err := finishAggregate(sel, schema, sink.finish(sel, schema))
	if err != nil {
		return nil, err
	}
	spAgg.SetRows(int64(out.Len()))
	return finishMaterialized(out, sel)
}
