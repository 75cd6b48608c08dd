package sqlengine

// This file holds the SELECT executor's operators. Every operator speaks one
// contract, rowset.BatchCursor: a pull returns up to rowset.DefaultBatchSize
// rows, and filters mark survivors in a selection vector instead of copying
// them. planSelect (plan.go) decides the operator chain once per execution.
//
// Operators that pipeline: scan, filter, equi-join probe side, projection,
// DISTINCT, and TOP (which stops pulling — and therefore stops all upstream
// work — once it has N rows). Operators that materialize, because their
// semantics require seeing every input row first: ORDER BY, GROUP BY, and the
// hash-join build side.
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

// sliceCursor streams a pre-built row slice under an arbitrary schema in
// zero-copy batches. Rows are shared, never copied. The first batch holds
// firstBatchSize rows and each later one twice as many as the last, up to
// rowset.DefaultBatchSize: a statement that stops early (TOP) pays for a
// small batch, while a long scan runs at full size after four pulls.
type sliceCursor struct {
	schema *rowset.Schema
	rows   []rowset.Row
	i      int
	size   int // rows in the last batch
}

const firstBatchSize = 64

func newSliceCursor(schema *rowset.Schema, rows []rowset.Row) *sliceCursor {
	return &sliceCursor{schema: schema, rows: rows}
}

func (c *sliceCursor) NextBatch() (rowset.Batch, error) {
	if c.i >= len(c.rows) {
		return rowset.Batch{}, nil
	}
	c.size = min(max(2*c.size, firstBatchSize), rowset.DefaultBatchSize)
	hi := min(c.i+c.size, len(c.rows))
	b := rowset.Batch{Rows: c.rows[c.i:hi]}
	c.i = hi
	return b, nil
}

func (c *sliceCursor) Schema() *rowset.Schema { return c.schema }

func (c *sliceCursor) Close() error {
	c.i = len(c.rows)
	c.rows = nil
	return nil
}

// cancelCursor threads context cancellation into the pull pipeline.
// Upstream batches are doled out in windows of at most pollEvery rows, with a
// poll of ctx.Done() before each window, so a cancelled statement stops
// pulling — and therefore stops every upstream operator — within pollEvery
// rows instead of running the scan to completion. QueryContext inserts it
// only when the context is actually cancellable (Done() != nil), keeping the
// common Background path allocation- and branch-free.
type cancelCursor struct {
	src  rowset.BatchCursor
	ctx  context.Context
	done <-chan struct{}

	pending rowset.Batch
	wlo     int
}

// pollEvery is the row stride between cancellation polls: frequent enough
// that a runaway join aborts promptly, sparse enough that the select adds
// no measurable per-row cost.
const pollEvery = 64

func (c *cancelCursor) NextBatch() (rowset.Batch, error) {
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
			hi := min(c.wlo+pollEvery, c.pending.Len())
			b := c.pending.Slice(c.wlo, hi)
			c.wlo = hi
			return b, nil
		}
		b, err := c.src.NextBatch()
		if err != nil || b.Empty() {
			return b, err
		}
		c.pending, c.wlo = b, 0
	}
}

func (c *cancelCursor) Schema() *rowset.Schema { return c.src.Schema() }
func (c *cancelCursor) Close() error           { return c.src.Close() }

// drain pulls c to exhaustion, handing every batch to fn, and closes c in
// every case. It returns how many batches flowed, for the engine's
// sql_batches_total counter.
func drain(c rowset.BatchCursor, fn func(b rowset.Batch) error) (int64, error) {
	defer c.Close() //nolint:errcheck // Close after exhaustion is a no-op
	var batches int64
	for {
		b, err := c.NextBatch()
		if err != nil {
			return batches, err
		}
		if b.Empty() {
			return batches, nil
		}
		batches++
		if err := fn(b); err != nil {
			return batches, err
		}
	}
}

// appendLive appends b's live rows to rows. Retaining the rows themselves is
// safe: engine rows are immutable, only the batch's slices are
// producer-owned.
func appendLive(rows []rowset.Row, b rowset.Batch) []rowset.Row {
	if b.Sel == nil {
		return append(rows, b.Rows...)
	}
	for _, i := range b.Sel {
		rows = append(rows, b.Rows[i])
	}
	return rows
}

// drainRows drains c into a row slice, preallocated to capHint rows when the
// caller knows an upper bound (0 when it does not).
func drainRows(c rowset.BatchCursor, capHint int) ([]rowset.Row, int64, error) {
	rows := make([]rowset.Row, 0, capHint)
	batches, err := drain(c, func(b rowset.Batch) error {
		rows = appendLive(rows, b)
		return nil
	})
	if err != nil {
		return nil, batches, err
	}
	return rows, batches, nil
}

// ---------- span accounting ----------

// opCursor decorates an operator cursor with span accounting: the rows that
// actually flow through the operator, the number of batches they came in,
// and — only under EXPLAIN ANALYZE's detailed mode, because it costs two
// clock reads per pull — the operator's inclusive time (its own work plus
// upstream pulls). The span was opened and closed at pipeline build time;
// its Rows/Elapsed fields are patched when the stream ends, which is before
// anyone reads the tree (EXPLAIN ANALYZE reads after execution, DM_TRACE
// retains trees only after the statement finishes).
type opCursor struct {
	src     rowset.BatchCursor
	sp      *obs.Span
	rows    int64
	timed   bool
	elapsed time.Duration
	batches int64
	labeled bool
}

// traced wraps c with span accounting, or returns c unchanged when the
// statement is untraced (sp nil) so untraced execution pays nothing.
func traced(c rowset.BatchCursor, sp *obs.Span, timed bool) rowset.BatchCursor {
	if sp == nil {
		return c
	}
	return &opCursor{src: c, sp: sp, timed: timed}
}

func (o *opCursor) NextBatch() (rowset.Batch, error) {
	var start time.Time
	if o.timed {
		start = time.Now()
	}
	b, err := o.src.NextBatch()
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

// ---------- filter / distinct / limit ----------

// filterCursor narrows each upstream batch's selection vector to the rows
// pass accepts: survivors are marked, not copied. The returned batch aliases
// the upstream batch's rows, which stay valid until this cursor's next pull —
// exactly the window the ownership rule grants the consumer.
type filterCursor struct {
	src  rowset.BatchCursor
	pass func(rowset.Row) (bool, error) // nil passes everything
	sel  []int
}

// newFilterCursor filters src by cond; a nil cond (the whole WHERE was pushed
// into a scan) passes everything.
func newFilterCursor(src rowset.BatchCursor, cond Expr) *filterCursor {
	c := &filterCursor{src: src}
	if cond != nil {
		c.pass = compilePred(cond, src.Schema())
	}
	return c
}

// newDistinctCursor keeps the first occurrence of every distinct row: a
// filter whose predicate remembers the rows it has passed.
func newDistinctCursor(src rowset.BatchCursor) *filterCursor {
	seen := make(map[string]struct{})
	var scratch []byte
	return &filterCursor{src: src, pass: func(r rowset.Row) (bool, error) {
		scratch = scratch[:0]
		for _, v := range r {
			scratch = rowset.AppendKey(scratch, v)
			scratch = append(scratch, '|')
		}
		if _, dup := seen[string(scratch)]; dup {
			return false, nil
		}
		seen[string(scratch)] = struct{}{}
		return true, nil
	}}
}

func (c *filterCursor) NextBatch() (rowset.Batch, error) {
	for {
		b, err := c.src.NextBatch()
		if err != nil || b.Empty() || c.pass == nil {
			return b, err
		}
		n := b.Len()
		if cap(c.sel) < n {
			c.sel = make([]int, 0, n)
		}
		sel := c.sel[:0]
		for i := 0; i < n; i++ {
			ri := i
			if b.Sel != nil {
				ri = b.Sel[i]
			}
			ok, err := c.pass(b.Rows[ri])
			if err != nil {
				return rowset.Batch{}, err
			}
			if ok {
				sel = append(sel, ri)
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

// limitCursor is TOP n: it trims the batch that reaches n rows and closes its
// source on the next pull instead of draining it, so upstream work stops at
// the batch holding the nth row.
type limitCursor struct {
	src rowset.BatchCursor
	n   int
}

func (c *limitCursor) NextBatch() (rowset.Batch, error) {
	if c.n <= 0 {
		return rowset.Batch{}, c.src.Close()
	}
	b, err := c.src.NextBatch()
	if err != nil || b.Empty() {
		return b, err
	}
	if b.Len() > c.n {
		b = b.Slice(0, c.n)
	}
	c.n -= b.Len()
	return b, nil
}

func (c *limitCursor) Schema() *rowset.Schema { return c.src.Schema() }
func (c *limitCursor) Close() error           { return c.src.Close() }

// ---------- scans and pushdown ----------

// pushedEq is a `col = literal` predicate applied at the scan through the
// table's hash index instead of in the filter operator.
type pushedEq struct {
	col string // bare column name in the table schema
	val rowset.Value
}

// compiledScan is one FROM entry resolved against the catalog before any
// cursor opens: its qualified schema, the backing table (nil for a view),
// (after planPushdown) an optional index-applied equality, and (after
// planSelect) the rows the scan yields.
type compiledScan struct {
	ref    TableRef
	schema *rowset.Schema
	tbl    *storage.Table // nil for views
	pushed *pushedEq

	// rows is the scan's output: the materialized view's rows, the pushed
	// equality's index bucket, or a point-in-time table snapshot. Rows pass
	// through shared and un-renormalized: table rows were coerced on insert,
	// view rows were normalized when the view query materialized.
	rows []rowset.Row

	// estimate is the scan's expected output cardinality, reported in its
	// span label: exact for views and unpushed table scans, rows/distinct
	// from table statistics for pushed equalities (which picks the most
	// selective probe).
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
		cs.rows = vr.Rows()
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

// open builds the scan's cursor and records its span under label.
func (cs *compiledScan) open(t *obs.Trace, label string, detailed bool) rowset.BatchCursor {
	sp := t.StartSpan("scan", label)
	sp.SetRows(int64(len(cs.rows)))
	t.EndSpan(sp)
	return traced(newSliceCursor(cs.schema, cs.rows), sp, detailed)
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

// joinEstimate propagates cardinality across one join step. It is
// deliberately coarse: cross joins multiply, equi and general joins keep the
// larger input (a safe upper bound for one-to-many key joins).
func joinEstimate(l, r int, kind JoinKind) int {
	if kind == JoinCross {
		return l * r
	}
	return max(l, r)
}
