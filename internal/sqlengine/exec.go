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

// QueryContext executes a SELECT: planSelect decides the plan once, then
// either the morsel-parallel path (see morsel.go) or the sequential pipeline
// runs it. The sequential pipeline pulls batches through scans (index-aware
// when a WHERE equality can be pushed down), streaming joins, filter,
// projection, DISTINCT, and TOP; only ORDER BY, GROUP BY, and hash-join build
// sides materialize, because their semantics need the whole input. TOP
// therefore stops upstream work once it has its rows.
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
	p, err := e.planSelect(sel)
	if err != nil {
		return nil, err
	}
	var out *rowset.Rowset
	if p.parallel {
		out, err = e.runMorsel(ctx, t, p)
	} else {
		out, err = e.runSequential(ctx, t, p)
	}
	if err != nil {
		return nil, err
	}
	spSel.SetRows(int64(out.Len()))
	return out, nil
}

// runSequential executes p as one pipeline on the calling goroutine.
func (e *Engine) runSequential(ctx context.Context, t *obs.Trace, p *selectPlan) (*rowset.Rowset, error) {
	sel := p.sel
	detailed := t.Detailed()
	src := p.openSource(t)
	if done := ctx.Done(); done != nil {
		// Cancellable statement: poll ctx between row windows so a Close'd
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
		if p.residual != nil || spF != nil {
			src = traced(newFilterCursor(src, p.residual), spF, detailed)
		}
	}
	if !needsAggregate(sel) {
		return e.projectStream(t, sel, src, p.sourceHint())
	}
	sp := t.StartSpan("group-by", "")
	out, err := e.aggregate(sel, src)
	if err == nil {
		sp.SetRows(int64(out.Len()))
	}
	t.EndSpan(sp)
	if err != nil {
		return nil, err
	}
	return finishMaterialized(out, sel)
}

// finishMaterialized applies DISTINCT and TOP to an already-materialized
// result (the aggregation path).
func finishMaterialized(out *rowset.Rowset, sel *SelectStmt) (*rowset.Rowset, error) {
	if !sel.Distinct && (sel.Top <= 0 || out.Len() <= sel.Top) {
		return out, nil
	}
	rows, _, err := drainRows(distinctTop(newSliceCursor(out.Schema(), out.Rows()), sel), 0)
	if err != nil {
		return nil, err
	}
	return rowset.Adopt(out.Schema(), rows), nil
}

// distinctTop stacks the statement's DISTINCT and TOP operators on cur.
func distinctTop(cur rowset.BatchCursor, sel *SelectStmt) rowset.BatchCursor {
	if sel.Distinct {
		cur = newDistinctCursor(cur)
	}
	if sel.Top > 0 {
		cur = &limitCursor{src: cur, n: sel.Top}
	}
	return cur
}

// projectStream runs the non-aggregating tail of the pipeline: projection,
// then ORDER BY (the one materializing step, and only when present), then
// streaming DISTINCT and TOP, and finally adopts the drained rows into the
// result rowset without re-normalizing them. capHint bounds the rows src
// yields (0 when unknown).
func (e *Engine) projectStream(t *obs.Trace, sel *SelectStmt, src rowset.BatchCursor, capHint int) (*rowset.Rowset, error) {
	detailed := t.Detailed()
	srcSchema := src.Schema()
	// Projection maps rows one to one, so without DISTINCT or ORDER BY a TOP
	// cuts the stream before it and rows past the Nth are never projected.
	early := sel.Top > 0 && !sel.Distinct && len(sel.OrderBy) == 0
	if early {
		src = &limitCursor{src: src, n: sel.Top}
	}
	items, err := expandStars(sel.Items, srcSchema)
	if err != nil {
		src.Close() //nolint:errcheck // already failing
		return nil, err
	}
	names := outputNames(items)
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
		outs, keys, batches, err := drainWithKeys(cur, proj, capHint)
		e.batches.Add(batches)
		if err != nil {
			t.EndSpan(spSort)
			return nil, err
		}
		rowset.SortByKeys(outs, keys, descFlags(sel.OrderBy))
		spSort.SetRows(int64(len(outs)))
		t.EndSpan(spSort)
		cur, capHint = newSliceCursor(proj.Schema(), outs), len(outs)
	}
	if sel.Top > 0 {
		capHint = min(capHint, sel.Top)
	}
	if !early {
		if sel.Distinct {
			capHint = 0
		}
		cur = distinctTop(cur, sel)
	}
	rows, batches, err := drainRows(cur, capHint)
	e.batches.Add(batches)
	if err != nil {
		return nil, err
	}
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
