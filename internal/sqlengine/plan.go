package sqlengine

// Planning. planSelect makes every execution decision for one SELECT once
// per execution: it resolves the FROM entries, pushes index equalities into
// their scans, picks each join's operator and build side, and chooses
// between the sequential pipeline and morsel-parallel execution.
// QueryContext executes the plan; Engine.PlanSpan renders the same plan
// without running it, so EXPLAIN shows the decisions execution makes.

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/rowset"
	"repro/internal/storage"
)

// selectPlan is one SELECT's execution plan.
type selectPlan struct {
	sel      *SelectStmt
	scans    []*compiledScan
	joins    []joinPlan // joins[i] joins scans[i+1] onto everything before it
	residual Expr       // WHERE left after index pushdown; nil when all of it was pushed

	// parallel runs the statement morsel-parallel over scans[0] on workers
	// goroutines, one morsel per range.
	parallel bool
	morsels  []storage.Morsel
	workers  int
}

// joinPlan is one FROM step's join: the joined schema, the operator, and for
// hash joins the key ordinals on each side.
type joinPlan struct {
	kind     JoinKind
	on       Expr
	schema   *rowset.Schema
	strategy joinStrategy
	lo, ro   int
}

// planSelect plans sel against the live catalog and table statistics.
func (e *Engine) planSelect(sel *SelectStmt) (*selectPlan, error) {
	p := &selectPlan{sel: sel, residual: sel.Where}
	if len(sel.From) == 0 {
		return p, nil
	}
	p.scans = make([]*compiledScan, len(sel.From))
	for i, ref := range sel.From {
		cs, err := e.resolveScan(ref)
		if err != nil {
			return nil, err
		}
		p.scans[i] = cs
	}
	p.residual = planPushdown(sel.Where, p.scans)
	for _, cs := range p.scans {
		switch {
		case cs.tbl == nil: // view: resolveScan captured its rows
		case cs.pushed != nil:
			rows, err := cs.tbl.LookupEqualRows(cs.pushed.col, cs.pushed.val)
			if err != nil {
				return nil, err
			}
			cs.rows = rows
		default:
			cs.rows = cs.tbl.Snapshot()
		}
	}

	accSchema, accRows := p.scans[0].schema, len(p.scans[0].rows)
	for _, cs := range p.scans[1:] {
		schema, err := concatSchemas(accSchema, cs.schema)
		if err != nil {
			return nil, err
		}
		jp := joinPlan{kind: cs.ref.Kind, on: cs.ref.On, schema: schema, strategy: joinLoop}
		if cs.ref.Kind != JoinCross {
			if lo, ro, ok := equiJoinOrdinals(cs.ref.On, accSchema, cs.schema); ok {
				jp.lo, jp.ro, jp.strategy = lo, ro, joinBuildRight
				if accRows < len(cs.rows) {
					jp.strategy = joinBuildLeft // hash the smaller input
				}
			}
		}
		p.joins = append(p.joins, jp)
		accSchema, accRows = schema, joinEstimate(accRows, len(cs.rows), cs.ref.Kind)
	}

	cs := p.scans[0]
	p.workers = e.vecWorkers()
	if morselShape(sel) && cs.tbl != nil && cs.pushed == nil &&
		(e.Vec.Force || (len(cs.rows) >= defaultVecThreshold && p.workers > 1)) {
		p.parallel = true
		p.morsels = storage.MorselRanges(len(cs.rows), e.vecMorselSize())
	}
	return p, nil
}

// morselShape reports whether sel's shape allows morsel-parallel execution
// (see morsel.go): one FROM entry, and either only mergeable aggregates or no
// aggregation and none of the rules whose state does not split by morsel —
// ORDER BY would re-materialize, DISTINCT keeps the first occurrence across
// the whole input, and TOP must stop the scan once it has its rows.
func morselShape(sel *SelectStmt) bool {
	if len(sel.From) != 1 {
		return false
	}
	if needsAggregate(sel) {
		return mergeableAggregates(sel)
	}
	return len(sel.OrderBy) == 0 && !sel.Distinct && sel.Top <= 0
}

// scanLabel renders scan i's span label: the FROM alias, the pushed index
// column, the cardinality estimate, and the morsel fan-out when parallel.
func (p *selectPlan) scanLabel(i int) string {
	label := p.scans[i].label()
	if p.parallel {
		label += fmt.Sprintf(" morsels=%d workers=%d", len(p.morsels), p.workers)
	}
	return label
}

// joinLabel renders join i's span label: the join kind plus the strategy
// ("build=left", "build=right", or "loop").
func (p *selectPlan) joinLabel(i int) string {
	jp := &p.joins[i]
	strategy := "loop"
	switch jp.strategy {
	case joinBuildLeft:
		strategy = "build=left"
	case joinBuildRight:
		strategy = "build=right"
	}
	return joinKindLabel(jp.kind) + " " + strategy
}

// span renders the plan as the span tree execution records, with Elapsed and
// Rows left zero.
func (p *selectPlan) span() *obs.Span {
	sp := obs.NewSpan("select", "")
	for i := range p.scans {
		sp.Add(obs.NewSpan("scan", p.scanLabel(i)))
		if i > 0 {
			sp.Add(obs.NewSpan("join", p.joinLabel(i-1)))
		}
	}
	addTailSpans(sp, p.sel)
	return sp
}

// addTailSpans adds the operators after the FROM clause: filter, then
// group-by or project (+sort).
func addTailSpans(sp *obs.Span, sel *SelectStmt) {
	if sel.Where != nil {
		sp.Add(obs.NewSpan("filter", ""))
	}
	if needsAggregate(sel) {
		sp.Add(obs.NewSpan("group-by", ""))
		return
	}
	sp.Add(obs.NewSpan("project", ""))
	if len(sel.OrderBy) > 0 {
		sp.Add(obs.NewSpan("sort", ""))
	}
}

// PlanSpan renders the SELECT's executor plan as a span tree without running
// it or consulting the catalog: the operator nodes, in the order
// QueryContext records them — scan/join per FROM entry, filter, then
// group-by or project (+sort). Elapsed and Rows stay zero; EXPLAIN renders
// them as NULL.
func (sel *SelectStmt) PlanSpan() *obs.Span {
	sp := obs.NewSpan("select", "")
	for i, ref := range sel.From {
		sp.Add(obs.NewSpan("scan", ref.AliasOrName()))
		if i > 0 {
			sp.Add(obs.NewSpan("join", joinKindLabel(ref.Kind)))
		}
	}
	addTailSpans(sp, sel)
	return sp
}

// PlanSpan is the plan QueryContext would execute right now against the live
// catalog and table statistics, rendered as a span tree: scan labels carry
// the index probe, cardinality estimate and morsel fan-out ("cust index=id
// est=1", "T est=20000 morsels=3 workers=4"), join labels the build-side
// decision ("inner build=left"). Falls back to the shape-only sel.PlanSpan()
// when the catalog cannot resolve the statement (EXPLAIN must not fail where
// execution would explain better).
func (e *Engine) PlanSpan(sel *SelectStmt) *obs.Span {
	p, err := e.planSelect(sel)
	if err != nil {
		return sel.PlanSpan()
	}
	return p.span()
}

// openSource opens the sequential pipeline's FROM clause as one cursor whose
// columns are qualified "alias.column", recording scan and join spans in the
// order span declares them.
func (p *selectPlan) openSource(t *obs.Trace) rowset.BatchCursor {
	if len(p.scans) == 0 {
		// FROM-less SELECT evaluates items once against an empty row.
		return newSliceCursor(rowset.MustSchema(), []rowset.Row{{}})
	}
	detailed := t.Detailed()
	acc := p.scans[0].open(t, p.scanLabel(0), detailed)
	leftHint := len(p.scans[0].rows) // exact only before the first join
	for i, cs := range p.scans[1:] {
		right := cs.open(t, p.scanLabel(i+1), detailed)
		jc := newJoinCursor(acc, right, &p.joins[i], leftHint, len(cs.rows), p.workers)
		sp := t.StartSpan("join", p.joinLabel(i))
		t.EndSpan(sp)
		acc = traced(jc, sp, detailed)
		leftHint = 0
	}
	return acc
}

// sourceHint is an upper bound on the rows the FROM clause yields, for
// preallocating drains: exact for one scan, unknown (0) across joins.
func (p *selectPlan) sourceHint() int {
	switch len(p.scans) {
	case 0:
		return 1
	case 1:
		return len(p.scans[0].rows)
	}
	return 0
}
