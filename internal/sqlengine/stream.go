package sqlengine

// This file is the streaming (Volcano-style) SELECT executor: the FROM/WHERE/
// project/sort/distinct/TOP pipeline is compiled into a chain of pull-based
// rowset.Cursor operators, and rows flow through one at a time instead of
// being materialized into a fresh Rowset at every operator boundary.
//
// Operators that pipeline: scan, filter, equi-join probe side, projection,
// DISTINCT, and TOP (which stops pulling — and therefore stops all upstream
// work — after N rows). Operators that materialize, because their semantics
// require seeing every input row first: ORDER BY, GROUP BY, and the hash-join
// build side.
//
// Scans are index-aware: a WHERE conjunct of the form `col = literal` whose
// column resolves to exactly one FROM entry with a hash index is answered by
// storage.Table.LookupEqualRows (O(bucket) instead of O(table)) and removed
// from the residual filter. Pushdown is deliberately conservative — see
// planPushdown for the soundness rules.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/rowset"
	"repro/internal/storage"
)

// ---------- generic cursors ----------

// sliceCursor streams a pre-built row slice under an arbitrary schema. Rows
// are shared, never copied.
type sliceCursor struct {
	schema *rowset.Schema
	rows   []rowset.Row
	i      int
}

func newSliceCursor(schema *rowset.Schema, rows []rowset.Row) *sliceCursor {
	return &sliceCursor{schema: schema, rows: rows}
}

func (c *sliceCursor) Next() (rowset.Row, error) {
	if c.i >= len(c.rows) {
		return nil, nil
	}
	r := c.rows[c.i]
	c.i++
	return r, nil
}

func (c *sliceCursor) Schema() *rowset.Schema { return c.schema }

func (c *sliceCursor) Close() error {
	c.i = len(c.rows)
	c.rows = nil
	return nil
}

// Size reports the exact number of rows the cursor will yield.
func (c *sliceCursor) Size() int { return len(c.rows) }

// NextBatch yields zero-copy subslices of the backing rows.
func (c *sliceCursor) NextBatch() (rowset.Batch, error) {
	if c.i >= len(c.rows) {
		return rowset.Batch{}, nil
	}
	hi := c.i + rowset.DefaultBatchSize
	if hi > len(c.rows) {
		hi = len(c.rows)
	}
	b := rowset.Batch{Rows: c.rows[c.i:hi]}
	c.i = hi
	return b, nil
}

// schemaCursor renames a stream's schema (table columns -> "alias.column")
// without touching the rows.
type schemaCursor struct {
	src    rowset.Cursor
	schema *rowset.Schema
	bsrc   rowset.BatchCursor
}

func (c *schemaCursor) Next() (rowset.Row, error) { return c.src.Next() }
func (c *schemaCursor) Schema() *rowset.Schema    { return c.schema }
func (c *schemaCursor) Close() error              { return c.src.Close() }
func (c *schemaCursor) Size() int                 { return cursorSize(c.src) }

func (c *schemaCursor) NextBatch() (rowset.Batch, error) {
	if c.bsrc == nil {
		c.bsrc = rowset.BatchCursorOf(c.src)
	}
	return c.bsrc.NextBatch()
}

// cancelCursor threads context cancellation into the pull pipeline: Next
// polls ctx.Done() every pollEvery rows, so a cancelled statement stops
// pulling — and therefore stops every upstream operator — mid-stream
// instead of running the scan to completion. QueryContext inserts it only
// when the context is actually cancellable (Done() != nil), keeping the
// common Background path allocation- and branch-free.
type cancelCursor struct {
	src  rowset.Cursor
	ctx  context.Context
	done <-chan struct{}
	n    uint

	// batch mode: upstream batches are doled out in sub-batch windows of at
	// most pollEvery rows, with a poll before each window, so cancellation
	// latency stays at the row path's bound instead of stretching by the
	// batch size.
	bsrc    rowset.BatchCursor
	pending rowset.Batch
	wlo     int
}

// pollEvery is the row stride between cancellation polls: frequent enough
// that a runaway join aborts promptly, sparse enough that the select adds
// no measurable per-row cost.
const pollEvery = 64

func (c *cancelCursor) Next() (rowset.Row, error) {
	if c.n%pollEvery == 0 {
		select {
		case <-c.done:
			return nil, c.ctx.Err()
		default:
		}
	}
	c.n++
	return c.src.Next()
}

func (c *cancelCursor) NextBatch() (rowset.Batch, error) {
	if c.bsrc == nil {
		c.bsrc = rowset.BatchCursorOf(c.src)
	}
	for {
		// One poll per loop turn: before the first window of every upstream
		// batch (which also aborts a pre-cancelled statement before any row
		// flows) and again before each subsequent window.
		select {
		case <-c.done:
			return rowset.Batch{}, c.ctx.Err()
		default:
		}
		if c.wlo < c.pending.Len() {
			hi := c.wlo + pollEvery
			if hi > c.pending.Len() {
				hi = c.pending.Len()
			}
			b := c.pending.Slice(c.wlo, hi)
			c.wlo = hi
			return b, nil
		}
		b, err := c.bsrc.NextBatch()
		if err != nil || b.Empty() {
			return b, err
		}
		c.pending, c.wlo = b, 0
	}
}

func (c *cancelCursor) Schema() *rowset.Schema { return c.src.Schema() }
func (c *cancelCursor) Close() error           { return c.src.Close() }
func (c *cancelCursor) Size() int              { return cursorSize(c.src) }

// sized is implemented by cursors that know exactly how many rows they will
// yield (table snapshots, slices, materialized views). Join planning uses it
// to pick the smaller hash-join build side.
type sized interface{ Size() int }

// cursorSize returns the cursor's exact cardinality, or -1 when unknown.
func cursorSize(c rowset.Cursor) int {
	if s, ok := c.(sized); ok {
		return s.Size()
	}
	return -1
}

// smallDrainSize is the source cardinality below which drains stay
// row-at-a-time even over a batch-capable pipeline: the batch path's fixed
// per-statement setup (adapter wrappers, selection vectors, output arenas)
// costs more than the per-row interface calls it amortizes. Indexed point
// lookups — whose probe gives an exact size hint of a few rows — are the
// case that matters.
const smallDrainSize = 64

// drainRows pulls a cursor to exhaustion, returning the yielded rows. The
// cursor is closed in every case. Batch-capable cursors drain batch-at-a-time
// (one interface call per batch instead of per row); live rows are copied out
// of the producer-owned batches, which is safe to retain because engine rows
// are immutable.
func drainRows(c rowset.Cursor) ([]rowset.Row, error) {
	rows, _, err := drainRowsCounted(c)
	return rows, err
}

// drainRowsCounted is drainRows reporting how many batches flowed (0 on the
// row path), for the engine's sql_batches_total counter.
func drainRowsCounted(c rowset.Cursor) ([]rowset.Row, int64, error) {
	defer c.Close() //nolint:errcheck // Close after exhaustion is a no-op
	var rows []rowset.Row
	n := cursorSize(c)
	if n > 0 {
		rows = make([]rowset.Row, 0, n) // upper bound: filters shrink it
	}
	if bc, ok := c.(rowset.BatchCursor); ok && (n < 0 || n > smallDrainSize) {
		var batches int64
		for {
			b, err := bc.NextBatch()
			if err != nil {
				return nil, batches, err
			}
			if b.Empty() {
				return rows, batches, nil
			}
			batches++
			if b.Sel == nil {
				rows = append(rows, b.Rows...)
			} else {
				for _, i := range b.Sel {
					rows = append(rows, b.Rows[i])
				}
			}
		}
	}
	for {
		r, err := c.Next()
		if err != nil {
			return nil, 0, err
		}
		if r == nil {
			return rows, 0, nil
		}
		rows = append(rows, r)
	}
}

// ---------- span accounting ----------

// opCursor decorates an operator cursor with span accounting: the rows that
// actually flow through the operator, and — only under EXPLAIN ANALYZE's
// detailed mode, because it costs two clock reads per row — the operator's
// inclusive time (its own work plus upstream pulls). The span was opened and
// closed at pipeline build time; its Rows/Elapsed fields are patched when the
// stream ends, which is before anyone reads the tree (EXPLAIN ANALYZE reads
// after execution, DM_TRACE retains trees only after the statement finishes).
type opCursor struct {
	src     rowset.Cursor
	sp      *obs.Span
	rows    int64
	timed   bool
	elapsed time.Duration

	bsrc    rowset.BatchCursor
	batches int64
	labeled bool
}

// traced wraps c with span accounting, or returns c unchanged when the
// statement is untraced (sp nil) so untraced execution pays nothing.
func traced(c rowset.Cursor, sp *obs.Span, timed bool) rowset.Cursor {
	if sp == nil {
		return c
	}
	return &opCursor{src: c, sp: sp, timed: timed}
}

func (o *opCursor) Next() (rowset.Row, error) {
	var start time.Time
	if o.timed {
		start = time.Now()
	}
	r, err := o.src.Next()
	if o.timed {
		o.elapsed += time.Since(start)
	}
	if r != nil {
		o.rows++
	} else {
		o.flush()
	}
	return r, err
}

// NextBatch accounts batch pulls the same way Next accounts rows, and also
// counts batches so the span label can record the operator's batch fan-in.
func (o *opCursor) NextBatch() (rowset.Batch, error) {
	if o.bsrc == nil {
		o.bsrc = rowset.BatchCursorOf(o.src)
	}
	var start time.Time
	if o.timed {
		start = time.Now()
	}
	b, err := o.bsrc.NextBatch()
	if o.timed {
		o.elapsed += time.Since(start)
	}
	if !b.Empty() {
		o.rows += int64(b.Len())
		o.batches++
	} else {
		o.flush()
	}
	return b, err
}

func (o *opCursor) Schema() *rowset.Schema { return o.src.Schema() }

func (o *opCursor) Close() error {
	o.flush()
	return o.src.Close()
}

func (o *opCursor) Size() int { return cursorSize(o.src) }

func (o *opCursor) flush() {
	o.sp.Rows = o.rows
	if o.timed {
		o.sp.Elapsed = o.elapsed
	}
	if o.batches > 0 && !o.labeled {
		o.labeled = true
		label := fmt.Sprintf("batches=%d", o.batches)
		if o.sp.Label != "" {
			label = o.sp.Label + " " + label
		}
		o.sp.SetLabel(label)
	}
}

// ---------- filter ----------

type filterCursor struct {
	src  rowset.Cursor
	cond Expr // nil passes everything (the whole WHERE was pushed into a scan)
	env  *Env

	// pred is the compiled form of cond when the predicate compiler admits
	// it (see pred.go): same rows pass, no Env, no error paths.
	pred func(rowset.Row) bool

	bsrc rowset.BatchCursor
	sel  []int
}

func newFilterCursor(src rowset.Cursor, cond Expr) *filterCursor {
	c := &filterCursor{src: src, cond: cond, env: &Env{Schema: src.Schema()}}
	if cond != nil {
		c.pred, _ = compilePred(cond, src.Schema())
	}
	return c
}

func (c *filterCursor) Next() (rowset.Row, error) {
	for {
		r, err := c.src.Next()
		if err != nil || r == nil {
			return r, err
		}
		if c.cond == nil {
			return r, nil
		}
		if c.pred != nil {
			if c.pred(r) {
				return r, nil
			}
			continue
		}
		c.env.Row = r
		v, err := Eval(c.cond, c.env)
		if err != nil {
			return nil, err
		}
		ok, err := Truthy(v)
		if err != nil {
			return nil, err
		}
		if ok {
			return r, nil
		}
	}
}

// NextBatch filters a whole upstream batch with a selection vector: survivors
// are marked, not copied. The returned batch aliases the upstream batch's
// rows, which stay valid until this cursor's next pull — exactly the window
// the ownership rule grants the consumer.
func (c *filterCursor) NextBatch() (rowset.Batch, error) {
	if c.bsrc == nil {
		c.bsrc = rowset.BatchCursorOf(c.src)
	}
	for {
		b, err := c.bsrc.NextBatch()
		if err != nil || b.Empty() {
			return b, err
		}
		if c.cond == nil {
			return b, nil
		}
		sel := c.sel[:0]
		if c.pred != nil {
			if b.Sel == nil {
				for i, r := range b.Rows {
					if c.pred(r) {
						sel = append(sel, i)
					}
				}
			} else {
				for _, i := range b.Sel {
					if c.pred(b.Rows[i]) {
						sel = append(sel, i)
					}
				}
			}
		} else {
			n := b.Len()
			for i := 0; i < n; i++ {
				r := b.Row(i)
				c.env.Row = r
				v, err := Eval(c.cond, c.env)
				if err != nil {
					return rowset.Batch{}, err
				}
				ok, err := Truthy(v)
				if err != nil {
					return rowset.Batch{}, err
				}
				if !ok {
					continue
				}
				if b.Sel == nil {
					sel = append(sel, i)
				} else {
					sel = append(sel, b.Sel[i])
				}
			}
		}
		c.sel = sel
		if len(sel) == 0 {
			continue // fully filtered batch: keep pulling
		}
		return rowset.Batch{Rows: b.Rows, Sel: sel}, nil
	}
}

func (c *filterCursor) Schema() *rowset.Schema { return c.src.Schema() }
func (c *filterCursor) Close() error           { return c.src.Close() }

// Size forwards the source's cardinality as an upper bound (the filter can
// only shrink it) — callers of cursorSize already treat it as a hint.
func (c *filterCursor) Size() int { return cursorSize(c.src) }

// ---------- limit / distinct ----------

type limitCursor struct {
	src rowset.Cursor
	n   int
}

func (c *limitCursor) Next() (rowset.Row, error) {
	if c.n <= 0 {
		// Early exit: release upstream state without draining it.
		return nil, c.src.Close()
	}
	r, err := c.src.Next()
	if r != nil {
		c.n--
	}
	return r, err
}

func (c *limitCursor) Schema() *rowset.Schema { return c.src.Schema() }
func (c *limitCursor) Close() error           { return c.src.Close() }

type distinctCursor struct {
	src     rowset.Cursor
	seen    map[string]struct{}
	scratch []byte
}

func newDistinctCursor(src rowset.Cursor) *distinctCursor {
	return &distinctCursor{src: src, seen: make(map[string]struct{})}
}

func (c *distinctCursor) Next() (rowset.Row, error) {
	for {
		r, err := c.src.Next()
		if err != nil || r == nil {
			return r, err
		}
		buf := c.scratch[:0]
		for _, v := range r {
			buf = rowset.AppendKey(buf, v)
			buf = append(buf, '|')
		}
		c.scratch = buf
		if _, dup := c.seen[string(buf)]; dup {
			continue
		}
		c.seen[string(buf)] = struct{}{}
		return r, nil
	}
}

func (c *distinctCursor) Schema() *rowset.Schema { return c.src.Schema() }
func (c *distinctCursor) Close() error           { return c.src.Close() }

// ---------- scans and pushdown ----------

// pushedEq is a `col = literal` predicate applied at the scan through the
// table's hash index instead of in the filter operator.
type pushedEq struct {
	col string // bare column name in the table schema
	val rowset.Value
}

// compiledScan is one FROM entry resolved against the catalog before any
// cursor opens: its qualified schema, the backing table or materialized view,
// and (after planPushdown) an optional index-applied equality.
type compiledScan struct {
	ref    TableRef
	schema *rowset.Schema
	tbl    *storage.Table // nil for views
	view   *rowset.Rowset // nil for tables
	pushed *pushedEq

	// estimate is the scan's expected output cardinality: exact for views and
	// unpushed table scans, rows/distinct from table statistics for pushed
	// equalities. Join planning falls back to it when exact cursor sizes are
	// unavailable.
	estimate int
}

// TableSource resolves name to a base table, reporting false when the name
// is unknown or names a view (views shadow tables in FROM resolution). It
// lets higher layers — the shape service's RELATE planner — ask whether an
// index-backed lookup would read the same rows a FROM clause would.
func (e *Engine) TableSource(name string) (*storage.Table, bool) {
	if _, ok := e.views.get(name); ok {
		return nil, false
	}
	tbl, err := e.DB.Table(name)
	if err != nil {
		return nil, false
	}
	return tbl, true
}

func (e *Engine) resolveScan(ref TableRef) (*compiledScan, error) {
	cs := &compiledScan{ref: ref}
	var base *rowset.Schema
	if view, ok := e.views.get(ref.Name); ok {
		// Views are registered only after their query validates, and can
		// reference only pre-existing views, so expansion cannot cycle.
		vr, err := e.Query(view)
		if err != nil {
			return nil, fmt.Errorf("sqlengine: view %s: %w", ref.Name, err)
		}
		cs.view = vr
		cs.estimate = vr.Len()
		base = vr.Schema()
	} else {
		tbl, err := e.DB.Table(ref.Name)
		if err != nil {
			return nil, err
		}
		cs.tbl = tbl
		cs.estimate = tbl.Len()
		base = tbl.Schema()
	}
	q := ref.AliasOrName()
	cols := make([]rowset.Column, base.Len())
	for i, c := range base.Columns {
		cols[i] = rowset.Column{Name: q + "." + c.Name, Type: c.Type, Nested: c.Nested}
	}
	schema, err := rowset.NewSchema(cols...)
	if err != nil {
		return nil, fmt.Errorf("sqlengine: %w (duplicate alias %q?)", err, q)
	}
	cs.schema = schema
	return cs, nil
}

// open builds the scan's cursor and records its span. Rows pass through
// shared and un-renormalized: table rows were coerced on insert, view rows
// were normalized when the view query materialized.
func (cs *compiledScan) open(t *obs.Trace, detailed bool) (rowset.Cursor, error) {
	sp := t.StartSpan("scan", cs.label())
	var cur rowset.Cursor
	switch {
	case cs.view != nil:
		cur = newSliceCursor(cs.schema, cs.view.Rows())
	case cs.pushed != nil:
		rows, err := cs.tbl.LookupEqualRows(cs.pushed.col, cs.pushed.val)
		if err != nil {
			t.EndSpan(sp)
			return nil, err
		}
		cur = newSliceCursor(cs.schema, rows)
	default:
		cur = &schemaCursor{src: cs.tbl.Cursor(), schema: cs.schema}
	}
	sp.SetRows(int64(cursorSize(cur)))
	t.EndSpan(sp)
	return traced(cur, sp, detailed), nil
}

// label renders the scan for span output: the FROM alias, the pushed index
// column (if any), and the cardinality estimate.
func (cs *compiledScan) label() string {
	label := cs.ref.AliasOrName()
	if cs.pushed != nil {
		label += " index=" + cs.pushed.col
	}
	return fmt.Sprintf("%s est=%d", label, cs.estimate)
}

// planPushdown splits the WHERE conjunction and pushes eligible equality
// conjuncts into their scans, returning the residual predicate (nil when
// everything was pushed). When several conjuncts could use an index on the
// same scan, the planner picks the most selective one by estimated output
// cardinality (rows / distinct values, from table statistics), breaking ties
// toward the earliest conjunct. A conjunct is eligible only when ALL of these
// hold, each protecting an equivalence with evaluating the predicate
// post-scan:
//
//   - it has the shape `column = literal` (either order) with a non-NULL
//     literal — NULL never equals anything, and rows the index would drop for
//     a NULL probe are exactly the rows three-valued logic drops;
//   - the column resolves in exactly one FROM entry — if it resolves in
//     several, evaluation would fail with an ambiguity error, which pushdown
//     must not mask;
//   - that entry is a table (not a view) with a hash index on the column —
//     without an index the scan fallback does the same linear work the filter
//     operator would, so there is nothing to win;
//   - the entry is the first FROM item or joins with a non-LEFT join —
//     filtering the null-supplied side of a LEFT JOIN before the join would
//     turn dropped rows into NULL-extended ones;
//   - the literal's type matches the column's family (see indexableEq) —
//     index buckets are keyed by rowset.Key, which distinguishes some values
//     that Compare-based predicate equality does not (bool vs number, DATE at
//     sub-second precision), so cross-family probes could miss rows.
func planPushdown(where Expr, scans []*compiledScan) Expr {
	if where == nil {
		return nil
	}
	conjuncts := splitAnd(where)
	type candidate struct {
		scan int
		eq   pushedEq
		est  int
	}
	cands := make([]*candidate, len(conjuncts))
	chosen := make(map[int]int) // scan index → index of its cheapest candidate conjunct
	for i, c := range conjuncts {
		si, eq, ok := matchPush(c, scans)
		if !ok {
			continue
		}
		est := scans[si].tbl.Stats().EqEstimate(eq.col)
		cands[i] = &candidate{scan: si, eq: eq, est: est}
		if j, have := chosen[si]; !have || est < cands[j].est {
			chosen[si] = i
		}
	}
	residual := conjuncts[:0]
	for i, c := range conjuncts {
		if cd := cands[i]; cd != nil && chosen[cd.scan] == i {
			cs := scans[cd.scan]
			cs.pushed = &cd.eq
			cs.estimate = cd.est
			continue
		}
		residual = append(residual, c)
	}
	return joinAnd(residual)
}

func splitAnd(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []Expr{e}
}

func joinAnd(list []Expr) Expr {
	if len(list) == 0 {
		return nil
	}
	out := list[0]
	for _, e := range list[1:] {
		out = &Binary{Op: OpAnd, L: out, R: e}
	}
	return out
}

// matchPush tests one conjunct against the pushdown soundness rules without
// committing it, returning the target scan and the index probe it would
// become. Choosing among competing candidates for one scan is planPushdown's
// job.
func matchPush(c Expr, scans []*compiledScan) (int, pushedEq, bool) {
	b, ok := c.(*Binary)
	if !ok || b.Op != OpEq {
		return 0, pushedEq{}, false
	}
	var cr *ColumnRef
	var lit *Literal
	if x, ok := b.L.(*ColumnRef); ok {
		if l, ok := b.R.(*Literal); ok {
			cr, lit = x, l
		}
	} else if x, ok := b.R.(*ColumnRef); ok {
		if l, ok := b.L.(*Literal); ok {
			cr, lit = x, l
		}
	}
	if cr == nil {
		return 0, pushedEq{}, false
	}
	val := rowset.Normalize(lit.Val)
	if val == nil {
		return 0, pushedEq{}, false
	}
	target, ord := -1, -1
	for i, cs := range scans {
		if o, err := ResolveColumn(cs.schema, cr.Qualifier, cr.Name); err == nil {
			if target >= 0 {
				return 0, pushedEq{}, false // ambiguous across FROM entries
			}
			target, ord = i, o
		}
	}
	if target < 0 {
		return 0, pushedEq{}, false // unknown column: leave it for the filter to report
	}
	cs := scans[target]
	if cs.tbl == nil {
		return 0, pushedEq{}, false
	}
	if target > 0 && cs.ref.Kind == JoinLeft {
		return 0, pushedEq{}, false
	}
	col := cs.schema.Column(ord)
	if !indexableEq(col.Type, val) {
		return 0, pushedEq{}, false
	}
	bare := cs.tbl.Schema().Column(ord).Name
	if !cs.tbl.HasIndex(bare) {
		return 0, pushedEq{}, false
	}
	return target, pushedEq{col: bare, val: val}, true
}

// indexableEq reports whether probing an index bucket for v is equivalent to
// evaluating `col = v` on every row. Index buckets use rowset.Key, predicate
// equality uses rowset.Compare; the two agree within a type family but Key is
// finer across families (bool vs number) and for DATE (Key keeps nanoseconds,
// Compare collapses to seconds), so only same-family scalar probes push.
func indexableEq(colType rowset.Type, v rowset.Value) bool {
	switch colType {
	case rowset.TypeLong, rowset.TypeDouble:
		switch v.(type) {
		case int64, float64:
			return true
		default:
			return false
		}
	case rowset.TypeText:
		_, ok := v.(string)
		return ok
	case rowset.TypeBool:
		_, ok := v.(bool)
		return ok
	case rowset.TypeNull, rowset.TypeDate, rowset.TypeTable:
		// TypeDate: Key/Compare disagree below one second. TypeTable and
		// untyped columns: equality is not meaningful for index probes.
	}
	return false
}

// buildSourceCursor compiles the FROM clause into one cursor whose columns
// are qualified "alias.column", recording scan and join spans in the same
// order PlanSpan declares them. It returns the residual WHERE predicate after
// index pushdown.
func (e *Engine) buildSourceCursor(t *obs.Trace, sel *SelectStmt) (rowset.Cursor, Expr, error) {
	if len(sel.From) == 0 {
		// FROM-less SELECT evaluates items once against an empty row.
		return newSliceCursor(rowset.MustSchema(), []rowset.Row{{}}), sel.Where, nil
	}
	detailed := t.Detailed()
	scans := make([]*compiledScan, len(sel.From))
	for i, ref := range sel.From {
		cs, err := e.resolveScan(ref)
		if err != nil {
			return nil, nil, err
		}
		scans[i] = cs
	}
	residual := planPushdown(sel.Where, scans)

	acc, err := scans[0].open(t, detailed)
	if err != nil {
		return nil, nil, err
	}
	accEst := scans[0].estimate
	for _, cs := range scans[1:] {
		right, err := cs.open(t, detailed)
		if err != nil {
			acc.Close() //nolint:errcheck // already failing
			return nil, nil, err
		}
		jc, strategy, err := newJoinCursor(acc, right, cs.ref.Kind, cs.ref.On, accEst, cs.estimate)
		if err != nil {
			acc.Close()   //nolint:errcheck // already failing
			right.Close() //nolint:errcheck // already failing
			return nil, nil, err
		}
		// Large hash-join builds precompute their keys on parallel workers.
		switch hj := jc.(type) {
		case *hashJoinStream:
			hj.workers = e.vecWorkers()
		case *hashJoinBuildLeft:
			hj.workers = e.vecWorkers()
		}
		sp := t.StartSpan("join", joinLabel(cs.ref.Kind, strategy))
		t.EndSpan(sp)
		acc = traced(jc, sp, detailed)
		accEst = joinEstimate(accEst, cs.estimate, cs.ref.Kind)
	}
	return acc, residual, nil
}

// joinLabel renders a join span label: the join kind plus the strategy the
// planner picked ("build=left", "build=right", or "loop").
func joinLabel(kind JoinKind, strategy string) string {
	if strategy == "" {
		return joinKindLabel(kind)
	}
	return joinKindLabel(kind) + " " + strategy
}

// joinEstimate propagates cardinality estimates across one join step. It is
// deliberately coarse: cross joins multiply, equi and general joins keep the
// larger input (a safe upper bound for one-to-many key joins). A negative
// input marks an unknown and poisons the result.
func joinEstimate(l, r int, kind JoinKind) int {
	if l < 0 || r < 0 {
		return -1
	}
	if kind == JoinCross {
		return l * r
	}
	if l > r {
		return l
	}
	return r
}
