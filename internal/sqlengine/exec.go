package sqlengine

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/rowset"
	"repro/internal/storage"
)

// Engine executes SQL statements against a storage database, plus the
// engine-level view catalog.
type Engine struct {
	DB    *storage.Database
	views viewCatalog

	// Vec tunes the batch/morsel execution paths; the zero value means
	// sensible defaults (GOMAXPROCS workers, storage.DefaultMorselSize
	// morsels, parallelism only for tables past the size threshold).
	Vec VecConfig

	// Metric handles resolved by Instrument; nil-safe no-ops until then, so
	// an uninstrumented engine pays nothing.
	stmts    *obs.Counter
	stmtErrs *obs.Counter
	rowsOut  *obs.Counter
	batches  *obs.Counter
	morsels  *obs.Counter
	parScans *obs.Counter

	// ddlHook, when set, is called with the object name after every
	// successful CREATE/DROP of a table or view — the provider's plan cache
	// hangs invalidation off it.
	ddlHook func(name string)
}

// SetDDLHook registers fn to run after every successful table or view
// CREATE/DROP, receiving the object's name. Call before serving statements;
// the hook is not synchronized.
func (e *Engine) SetDDLHook(fn func(name string)) { e.ddlHook = fn }

func (e *Engine) notifyDDL(name string) {
	if e.ddlHook != nil {
		e.ddlHook(name)
	}
}

// NewEngine wraps db.
func NewEngine(db *storage.Database) *Engine {
	return &Engine{DB: db}
}

// Instrument resolves the engine's metric handles against reg, exposing
// sql_statements_total, sql_errors_total, and sql_rows_out_total through the
// $SYSTEM.DM_PROVIDER_METRICS rowset. A nil registry leaves the engine
// uninstrumented.
func (e *Engine) Instrument(reg *obs.Registry) {
	e.stmts = reg.Counter(obs.MetricSQLStatementsTotal)
	e.stmtErrs = reg.Counter(obs.MetricSQLErrorsTotal)
	e.rowsOut = reg.Counter(obs.MetricSQLRowsOutTotal)
	e.batches = reg.Counter(obs.MetricSQLBatchesTotal)
	e.morsels = reg.Counter(obs.MetricSQLMorselsTotal)
	e.parScans = reg.Counter(obs.MetricSQLParallelScansTotal)
}

// Exec parses and executes one SQL statement. Every statement returns a
// rowset; DML statements return a single-row ([rows affected]) result.
func (e *Engine) Exec(sql string) (*rowset.Rowset, error) {
	return e.ExecContext(context.Background(), sql) //dmlint:allow ctxflow — documented context-free convenience form; ExecContext is the primary API.
}

// ExecContext is Exec threading a context: when ctx carries an obs.Trace,
// SELECT execution records per-operator spans (scan, join, filter, group-by,
// sort, project) under the statement's span tree.
func (e *Engine) ExecContext(ctx context.Context, sql string) (*rowset.Rowset, error) {
	stmt, err := Parse(sql)
	if err != nil {
		e.stmts.Inc()
		e.stmtErrs.Inc()
		return nil, err
	}
	return e.ExecStmtContext(ctx, stmt)
}

// ExecStmt executes a parsed statement.
func (e *Engine) ExecStmt(stmt Statement) (*rowset.Rowset, error) {
	return e.ExecStmtContext(context.Background(), stmt) //dmlint:allow ctxflow — documented context-free convenience form; ExecStmtContext is the primary API.
}

// ExecStmtContext executes a parsed statement, recording operator spans on
// the trace carried by ctx (if any).
func (e *Engine) ExecStmtContext(ctx context.Context, stmt Statement) (*rowset.Rowset, error) {
	rs, err := e.execStmt(ctx, stmt)
	e.stmts.Inc()
	if err != nil {
		e.stmtErrs.Inc()
	} else if rs != nil {
		e.rowsOut.Add(int64(rs.Len()))
	}
	return rs, err
}

func (e *Engine) execStmt(ctx context.Context, stmt Statement) (*rowset.Rowset, error) {
	switch st := stmt.(type) {
	case *SelectStmt:
		return e.QueryContext(ctx, st)
	case *CreateTableStmt:
		schema, err := rowset.NewSchema(st.Columns...)
		if err != nil {
			return nil, err
		}
		if _, err := e.DB.CreateTable(st.Name, schema); err != nil {
			return nil, err
		}
		e.notifyDDL(st.Name)
		return affected(0)
	case *InsertStmt:
		return e.execInsert(st)
	case *DeleteStmt:
		return e.execDelete(st)
	case *UpdateStmt:
		return e.execUpdate(st)
	case *DropTableStmt:
		if err := e.DB.DropTable(st.Name); err != nil {
			return nil, err
		}
		e.notifyDDL(st.Name)
		return affected(0)
	case *CreateViewStmt:
		rs, err := e.execCreateView(st)
		if err == nil {
			e.notifyDDL(st.Name)
		}
		return rs, err
	case *DropViewStmt:
		if err := e.views.drop(st.Name); err != nil {
			return nil, err
		}
		e.notifyDDL(st.Name)
		return affected(0)
	}
	return nil, fmt.Errorf("sqlengine: unsupported statement %T", stmt)
}

func affected(n int) (*rowset.Rowset, error) {
	rs := rowset.New(rowset.MustSchema(rowset.Column{Name: "rows affected", Type: rowset.TypeLong}))
	if err := rs.AppendVals(int64(n)); err != nil {
		return nil, err
	}
	return rs, nil
}

// ---------- SELECT ----------

// Query executes a SELECT and returns the result rowset.
func (e *Engine) Query(sel *SelectStmt) (*rowset.Rowset, error) {
	return e.QueryContext(context.Background(), sel) //dmlint:allow ctxflow — documented context-free convenience form; QueryContext is the primary API.
}

// needsAggregate reports whether the SELECT runs through the aggregation
// operator: explicit GROUP BY / HAVING, or an aggregate call in the items.
func needsAggregate(sel *SelectStmt) bool {
	if len(sel.GroupBy) > 0 || sel.Having != nil {
		return true
	}
	for _, it := range sel.Items {
		if !it.Star && ContainsAggregate(it.Expr) {
			return true
		}
	}
	return false
}

// QueryContext executes a SELECT as a pull-based cursor pipeline: scans
// (index-aware when a WHERE equality can be pushed down), streaming joins,
// filter, projection, DISTINCT, and TOP pipeline row-at-a-time; only ORDER
// BY, GROUP BY, and hash-join build sides materialize, because their
// semantics need the whole input. TOP therefore stops upstream work as soon
// as it has its rows.
//
// Each executor node records one span — scan, join, filter, group-by, sort,
// project — on the trace carried by ctx; the spans are created in plan order
// up front and their row counts (plus per-operator time under EXPLAIN
// ANALYZE's detailed mode) are filled in as the stream drains. With no trace
// the span plumbing is nil no-ops and nothing allocates.
func (e *Engine) QueryContext(ctx context.Context, sel *SelectStmt) (*rowset.Rowset, error) {
	t := obs.FromContext(ctx)
	spSel := t.StartSpan("select", "")
	defer t.EndSpan(spSel)
	sel, err := e.resolveStatementSubqueries(sel)
	if err != nil {
		return nil, err
	}
	// Order-insensitive single-table statements over large tables take the
	// morsel-parallel path (see morsel.go); everything else runs the
	// sequential (but batch-vectorized) pipeline below.
	if out, handled, err := e.tryMorsel(ctx, t, sel); handled {
		if err != nil {
			return nil, err
		}
		spSel.SetRows(int64(out.Len()))
		return out, nil
	}
	detailed := t.Detailed()
	src, residual, err := e.buildSourceCursor(t, sel)
	if err != nil {
		return nil, err
	}
	if done := ctx.Done(); done != nil {
		// Cancellable statement: poll ctx between row batches so a Close'd
		// server or timed-out client stops the scan mid-stream. The wrap
		// sits above the joins, so one poll point covers the whole source
		// pipeline.
		src = &cancelCursor{src: src, ctx: ctx, done: done}
	}
	if sel.Where != nil {
		// The filter span exists whenever the statement has a WHERE, even if
		// index pushdown consumed every conjunct (residual == nil) — the plan
		// shape must not depend on which indexes happened to exist.
		spF := t.StartSpan("filter", "")
		t.EndSpan(spF)
		if residual != nil || spF != nil {
			src = traced(newFilterCursor(src, residual), spF, detailed)
		}
	}
	var out *rowset.Rowset
	if needsAggregate(sel) {
		sp := t.StartSpan("group-by", "")
		out, err = e.aggregate(sel, src)
		src.Close() //nolint:errcheck // engine cursors fail only via Next
		if err != nil {
			t.EndSpan(sp)
			return nil, err
		}
		sp.SetRows(int64(out.Len()))
		t.EndSpan(sp)
		out, err = finishMaterialized(out, sel)
	} else {
		out, err = e.projectStream(t, sel, src)
	}
	if err != nil {
		return nil, err
	}
	spSel.SetRows(int64(out.Len()))
	return out, nil
}

// finishMaterialized applies DISTINCT and TOP to an already-materialized
// result (the aggregation path).
func finishMaterialized(out *rowset.Rowset, sel *SelectStmt) (*rowset.Rowset, error) {
	if !sel.Distinct && (sel.Top <= 0 || out.Len() <= sel.Top) {
		return out, nil
	}
	var cur rowset.Cursor = out.Cursor()
	if sel.Distinct {
		cur = newDistinctCursor(cur)
	}
	if sel.Top > 0 {
		cur = &limitCursor{src: cur, n: sel.Top}
	}
	return rowset.FromCursor(cur)
}

// projectStream runs the non-aggregating tail of the pipeline: projection,
// then ORDER BY (the one materializing step, and only when present), then
// streaming DISTINCT and TOP, and finally adopts the drained rows into the
// result rowset without re-normalizing them.
func (e *Engine) projectStream(t *obs.Trace, sel *SelectStmt, src rowset.Cursor) (*rowset.Rowset, error) {
	detailed := t.Detailed()
	items, err := expandStars(sel.Items, src.Schema())
	if err != nil {
		src.Close() //nolint:errcheck // already failing
		return nil, err
	}
	names := outputNames(items)
	srcSchema := src.Schema()
	spProj := t.StartSpan("project", "")
	t.EndSpan(spProj)
	proj, err := newProjectCursor(src, items, names, sel.OrderBy)
	if err != nil {
		src.Close() //nolint:errcheck // already failing
		return nil, err
	}
	cur := traced(proj, spProj, detailed)
	if len(sel.OrderBy) > 0 {
		spSort := t.StartSpan("sort", "")
		outs, keys, batches, err := drainWithKeys(cur, proj)
		if err != nil {
			t.EndSpan(spSort)
			return nil, err
		}
		e.batches.Add(batches)
		rowset.SortByKeys(outs, keys, descFlags(sel.OrderBy))
		spSort.SetRows(int64(len(outs)))
		t.EndSpan(spSort)
		cur = newSliceCursor(proj.Schema(), outs)
	}
	if sel.Distinct {
		cur = newDistinctCursor(cur)
	}
	if sel.Top > 0 {
		cur = &limitCursor{src: cur, n: sel.Top}
	}
	rows, batches, err := drainRowsCounted(cur)
	if err != nil {
		return nil, err
	}
	e.batches.Add(batches)
	schema, err := outputSchema(items, names, srcSchema, rows)
	if err != nil {
		return nil, err
	}
	// Rows are already canonical (projection normalizes computed values), so
	// the result adopts them without another pass.
	return rowset.Adopt(schema, rows), nil
}

// joinKindLabel names a join kind for span labels.
func joinKindLabel(k JoinKind) string {
	switch k {
	case JoinLeft:
		return "left"
	case JoinCross:
		return "cross"
	}
	return "inner"
}

// PlanSpan renders the SELECT's executor plan as a span tree without running
// it: the same operator nodes, in the same order, that QueryContext would
// record on a trace — scan/join per FROM entry, filter, then group-by or
// project (+sort). Elapsed and Rows stay zero; EXPLAIN renders them as NULL.
func (sel *SelectStmt) PlanSpan() *obs.Span {
	sp := obs.NewSpan("select", "")
	for i, ref := range sel.From {
		sp.Add(obs.NewSpan("scan", ref.AliasOrName()))
		if i > 0 {
			sp.Add(obs.NewSpan("join", joinKindLabel(ref.Kind)))
		}
	}
	if sel.Where != nil {
		sp.Add(obs.NewSpan("filter", ""))
	}
	if needsAggregate(sel) {
		sp.Add(obs.NewSpan("group-by", ""))
	} else {
		sp.Add(obs.NewSpan("project", ""))
		if len(sel.OrderBy) > 0 {
			sp.Add(obs.NewSpan("sort", ""))
		}
	}
	return sp
}

// PlanSpan is the SELECT's cost-annotated executor plan: the span tree
// sel.PlanSpan() declares, with scan labels carrying index-pushdown choices
// and cardinality estimates ("cust index=id est=1") and join labels the
// build-side decision ("inner build=left") — the same choices QueryContext
// would make right now against the live catalog and table statistics. Falls
// back to the shape-only sel.PlanSpan() when the catalog cannot resolve the
// statement (EXPLAIN must not fail where execution would explain better).
func (e *Engine) PlanSpan(sel *SelectStmt) *obs.Span {
	if len(sel.From) == 0 {
		return sel.PlanSpan()
	}
	scans := make([]*compiledScan, len(sel.From))
	for i, ref := range sel.From {
		cs, err := e.resolveScan(ref)
		if err != nil {
			return sel.PlanSpan()
		}
		scans[i] = cs
	}
	planPushdown(sel.Where, scans)
	sp := obs.NewSpan("select", "")
	accSchema := scans[0].schema
	accEst := scans[0].estimate
	for i, cs := range scans {
		sp.Add(obs.NewSpan("scan", cs.label()))
		if i == 0 {
			continue
		}
		strategy := "loop"
		if cs.ref.Kind != JoinCross {
			if _, _, ok := equiJoinOrdinals(cs.ref.On, accSchema, cs.schema); ok {
				if buildLeft(-1, -1, accEst, cs.estimate) {
					strategy = "build=left"
				} else {
					strategy = "build=right"
				}
			}
		}
		sp.Add(obs.NewSpan("join", joinLabel(cs.ref.Kind, strategy)))
		if joined, err := concatSchemas(accSchema, cs.schema); err == nil {
			accSchema = joined
		}
		accEst = joinEstimate(accEst, cs.estimate, cs.ref.Kind)
	}
	if sel.Where != nil {
		sp.Add(obs.NewSpan("filter", ""))
	}
	if needsAggregate(sel) {
		sp.Add(obs.NewSpan("group-by", ""))
	} else {
		sp.Add(obs.NewSpan("project", ""))
		if len(sel.OrderBy) > 0 {
			sp.Add(obs.NewSpan("sort", ""))
		}
	}
	return sp
}

func concatSchemas(a, b *rowset.Schema) (*rowset.Schema, error) {
	cols := make([]rowset.Column, 0, a.Len()+b.Len())
	cols = append(cols, a.Columns...)
	cols = append(cols, b.Columns...)
	return rowset.NewSchema(cols...)
}

// equiJoinOrdinals recognizes "a.x = b.y" ON clauses where the two refs
// resolve to opposite sides, returning the left and right ordinals.
func equiJoinOrdinals(on Expr, left, right *rowset.Schema) (int, int, bool) {
	b, ok := on.(*Binary)
	if !ok || b.Op != OpEq {
		return 0, 0, false
	}
	lc, ok1 := b.L.(*ColumnRef)
	rc, ok2 := b.R.(*ColumnRef)
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	if lo, err := ResolveColumn(left, lc.Qualifier, lc.Name); err == nil {
		if ro, err := ResolveColumn(right, rc.Qualifier, rc.Name); err == nil {
			return lo, ro, true
		}
	}
	if lo, err := ResolveColumn(left, rc.Qualifier, rc.Name); err == nil {
		if ro, err := ResolveColumn(right, lc.Qualifier, lc.Name); err == nil {
			return lo, ro, true
		}
	}
	return 0, 0, false
}

// ---------- projection helpers ----------

// expandStars replaces * and q.* items with explicit column refs.
func expandStars(items []SelectItem, schema *rowset.Schema) ([]SelectItem, error) {
	out := make([]SelectItem, 0, len(items))
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		matched := false
		for _, c := range schema.Columns {
			name := c.Name
			if it.Qualifier != "" && !strings.HasPrefix(strings.ToLower(name), strings.ToLower(it.Qualifier)+".") {
				continue
			}
			matched = true
			bare := name
			if dot := strings.LastIndex(bare, "."); dot >= 0 {
				bare = bare[dot+1:]
			}
			out = append(out, SelectItem{
				Expr:  &ColumnRef{Name: name},
				Alias: bare,
			})
		}
		if it.Qualifier != "" && !matched {
			return nil, fmt.Errorf("sqlengine: unknown qualifier %q in %s.*", it.Qualifier, it.Qualifier)
		}
	}
	return out, nil
}

// outputNames assigns unique output column names.
func outputNames(items []SelectItem) []string {
	names := make([]string, len(items))
	seen := make(map[string]int)
	for i, it := range items {
		var n string
		switch {
		case it.Alias != "":
			n = it.Alias
		default:
			if cr, ok := it.Expr.(*ColumnRef); ok {
				n = cr.Name
			} else {
				n = it.Expr.String()
			}
		}
		key := strings.ToLower(n)
		if c, dup := seen[key]; dup {
			seen[key] = c + 1
			n = fmt.Sprintf("%s_%d", n, c+1)
			key = strings.ToLower(n)
		}
		seen[key] = 1
		names[i] = n
	}
	return names
}

// outputSchema infers output column types: declared types for direct column
// references, value-based inference otherwise.
func outputSchema(items []SelectItem, names []string, srcSchema *rowset.Schema, rows []rowset.Row) (*rowset.Schema, error) {
	cols := make([]rowset.Column, len(items))
	for i, it := range items {
		col := rowset.Column{Name: names[i], Type: rowset.TypeNull}
		if cr, ok := it.Expr.(*ColumnRef); ok {
			if ord, err := ResolveColumn(srcSchema, cr.Qualifier, cr.Name); err == nil {
				col.Type = srcSchema.Column(ord).Type
				col.Nested = srcSchema.Column(ord).Nested
			}
		}
		if col.Type == rowset.TypeNull {
			for _, r := range rows {
				if r[i] != nil {
					col.Type = rowset.TypeOf(r[i])
					if nested, ok := r[i].(*rowset.Rowset); ok {
						col.Nested = nested.Schema()
					}
					break
				}
			}
		}
		cols[i] = col
	}
	return rowset.NewSchema(cols...)
}

// orderKeys evaluates ORDER BY expressions for one row (the aggregation path;
// the streaming path precompiles this lookup into an order plan). Each key
// expression resolves first against the projected output (aliases), then the
// source row.
func orderKeys(order []OrderItem, items []SelectItem, names []string, out rowset.Row, srcEnv *Env) (rowset.Row, error) {
	if len(order) == 0 {
		return nil, nil
	}
	keys := make(rowset.Row, len(order))
	for i, o := range order {
		// Alias reference?
		if cr, ok := o.Expr.(*ColumnRef); ok && cr.Qualifier == "" {
			found := false
			for j, n := range names {
				if strings.EqualFold(n, cr.Name) {
					keys[i] = out[j]
					found = true
					break
				}
			}
			if found {
				continue
			}
		}
		v, err := Eval(o.Expr, srcEnv)
		if err != nil {
			return nil, err
		}
		keys[i] = v
	}
	return keys, nil
}

// ---------- DML ----------

func (e *Engine) execInsert(st *InsertStmt) (*rowset.Rowset, error) {
	tbl, err := e.DB.Table(st.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()

	// Map the statement's column list to table ordinals.
	ords := make([]int, 0, len(st.Columns))
	if len(st.Columns) > 0 {
		for _, c := range st.Columns {
			i, ok := schema.Lookup(c)
			if !ok {
				return nil, fmt.Errorf("sqlengine: table %s has no column %q", st.Table, c)
			}
			ords = append(ords, i)
		}
	} else {
		for i := 0; i < schema.Len(); i++ {
			ords = append(ords, i)
		}
	}

	buildRow := func(vals rowset.Row) (rowset.Row, error) {
		if len(vals) != len(ords) {
			return nil, fmt.Errorf("sqlengine: INSERT has %d values for %d columns", len(vals), len(ords))
		}
		full := make(rowset.Row, schema.Len())
		for i, o := range ords {
			full[o] = vals[i]
		}
		return full, nil
	}

	n := 0
	if st.Query != nil {
		res, err := e.Query(st.Query)
		if err != nil {
			return nil, err
		}
		for _, r := range res.Rows() {
			full, err := buildRow(r)
			if err != nil {
				return nil, err
			}
			if err := tbl.Insert(full); err != nil {
				return nil, err
			}
			n++
		}
		return affected(n)
	}
	env := &Env{Schema: rowset.MustSchema(), Row: rowset.Row{}}
	for _, exprs := range st.Rows {
		vals := make(rowset.Row, len(exprs))
		for i, ex := range exprs {
			v, err := Eval(ex, env)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		full, err := buildRow(vals)
		if err != nil {
			return nil, err
		}
		if err := tbl.Insert(full); err != nil {
			return nil, err
		}
		n++
	}
	return affected(n)
}

func (e *Engine) execDelete(st *DeleteStmt) (*rowset.Rowset, error) {
	tbl, err := e.DB.Table(st.Table)
	if err != nil {
		return nil, err
	}
	if st.Where == nil {
		n := tbl.Len()
		tbl.Truncate()
		return affected(n)
	}
	env := &Env{Schema: tbl.Schema()}
	removed, err := tbl.Rewrite(writeProbe(tbl, st.Where), func(r rowset.Row) (rowset.Row, bool, error) {
		env.Row = r
		match, err := evalCond(st.Where, env)
		return nil, match, err
	})
	if err != nil {
		return nil, err
	}
	return affected(removed)
}

func (e *Engine) execUpdate(st *UpdateStmt) (*rowset.Rowset, error) {
	tbl, err := e.DB.Table(st.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	env := &Env{Schema: schema}
	setOrds := make([]int, len(st.Set))
	for i, sc := range st.Set {
		o, ok := schema.Lookup(sc.Column)
		if !ok {
			return nil, fmt.Errorf("sqlengine: table %s has no column %q", st.Table, sc.Column)
		}
		setOrds[i] = o
	}
	n, err := tbl.Rewrite(writeProbe(tbl, st.Where), func(r rowset.Row) (rowset.Row, bool, error) {
		env.Row = r
		if st.Where != nil {
			match, err := evalCond(st.Where, env)
			if err != nil || !match {
				return nil, false, err
			}
		}
		nr := r.Clone()
		for j, sc := range st.Set {
			v, err := Eval(sc.Value, env)
			if err != nil {
				return nil, false, err
			}
			nr[setOrds[j]] = v
		}
		return nr, true, nil
	})
	if err != nil {
		return nil, err
	}
	return affected(n)
}

// evalCond evaluates a WHERE condition against env.Row.
func evalCond(cond Expr, env *Env) (bool, error) {
	v, err := Eval(cond, env)
	if err != nil {
		return false, err
	}
	return Truthy(v)
}

// writeProbe picks the index probe a predicated UPDATE or DELETE takes its
// candidate rows from: the conjunct planPushdown would push into a scan of
// the table, under the same soundness rules. It returns nil when no conjunct
// qualifies, and the write then visits every row. The caller still evaluates
// the full WHERE on each candidate.
func writeProbe(tbl *storage.Table, where Expr) *storage.Probe {
	scan := &compiledScan{ref: TableRef{Name: tbl.Name()}, schema: tbl.Schema(), tbl: tbl}
	planPushdown(where, []*compiledScan{scan})
	if scan.pushed == nil {
		return nil
	}
	return &storage.Probe{Col: scan.pushed.col, Val: scan.pushed.val}
}
