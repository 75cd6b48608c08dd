// Package storage implements the relational substrate under the provider:
// an in-memory heap-table engine with a catalog, optional hash indexes, and
// binary disk persistence. It plays the role of the "core relational engine"
// in Figure 1 of the paper — the thing that stores training data and answers
// the SELECT queries embedded in SHAPE statements.
package storage

import (
	"bytes"
	"fmt"
	"slices"
	"sync"

	"repro/internal/rowset"
)

// Table is a heap table: an append-ordered collection of rows plus optional
// hash indexes. All methods are safe for concurrent use.
type Table struct {
	name   string
	schema *rowset.Schema

	mu      sync.RWMutex
	rows    []rowset.Row
	indexes map[string]*hashIndex // keyed by the column's schema name
}

// NewTable creates an empty table.
func NewTable(name string, schema *rowset.Schema) *Table {
	return &Table{name: name, schema: schema, indexes: make(map[string]*hashIndex)}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *rowset.Schema { return t.schema }

// Len returns the current row count.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Insert appends a row. Values are coerced to the column types; arity and
// coercion failures are errors and leave the table unchanged.
func (t *Table) Insert(r rowset.Row) error {
	row, err := t.coerce(r)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	pos := len(t.rows)
	t.rows = append(t.rows, row)
	for _, idx := range t.indexes {
		idx.add(row[idx.ord], pos)
	}
	return nil
}

// coerce validates r's arity and coerces a copy of it to the column types.
func (t *Table) coerce(r rowset.Row) (rowset.Row, error) {
	if len(r) != t.schema.Len() {
		return nil, fmt.Errorf("storage: table %s: row has %d values, want %d", t.name, len(r), t.schema.Len())
	}
	row := make(rowset.Row, len(r))
	for i, v := range r {
		cv, err := rowset.Coerce(rowset.Normalize(v), t.schema.Column(i).Type)
		if err != nil {
			return nil, fmt.Errorf("storage: table %s column %s: %w", t.name, t.schema.Column(i).Name, err)
		}
		row[i] = cv
	}
	return row, nil
}

// InsertMany appends rows, stopping at the first error.
func (t *Table) InsertMany(rows []rowset.Row) error {
	for _, r := range rows {
		if err := t.Insert(r); err != nil {
			return err
		}
	}
	return nil
}

// Replace atomically substitutes the table's contents with rows. Rows are
// validated and coerced like Insert; on any error the table is left
// unchanged.
func (t *Table) Replace(rows []rowset.Row) error {
	coerced := make([]rowset.Row, len(rows))
	for i, r := range rows {
		row, err := t.coerce(r)
		if err != nil {
			return err
		}
		coerced[i] = row
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = coerced
	t.rebuildIndexesLocked()
	return nil
}

// Truncate removes all rows (DELETE FROM with no predicate).
func (t *Table) Truncate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = nil
	t.rebuildIndexesLocked()
}

// rebuildIndexesLocked re-files every row in every index. t.mu must be held
// for writing.
func (t *Table) rebuildIndexesLocked() {
	for _, idx := range t.indexes {
		idx.reset()
		for pos, r := range t.rows {
			idx.add(r[idx.ord], pos)
		}
	}
}

// Probe narrows a Rewrite to the rows whose column Col equals Val.
type Probe struct {
	Col string
	Val rowset.Value
}

// RewriteFunc decides the fate of one candidate row of a Rewrite. It
// reports matched=false to leave the row as it is; a matched row is deleted
// when out is nil and replaced by out (coerced like Insert) otherwise. The
// row passed in is shared and read-only. The function runs under the
// table's write lock, so it must not call back into the table.
type RewriteFunc func(r rowset.Row) (out rowset.Row, matched bool, err error)

// Rewrite is the table's atomic read-modify-write, the primitive under
// UPDATE and predicated DELETE. Holding the write lock throughout, it offers
// fn the candidate rows in position order — the hash-index bucket of
// probe.Val when probe is non-nil and probe.Col is indexed, every row
// otherwise — and applies fn's decisions. It returns the number of matched
// rows. On any error, from fn or from coercion, the table is left unchanged.
//
// The work is proportional to the candidates and the rows that change, not
// to the table: only changed rows are coerced, and index maintenance moves
// only the positions whose key changed. The row slice is copy-on-write, so
// cursors, snapshots and morsels taken before the rewrite keep their
// point-in-time view. Deleting rows compacts the slice and rebuilds the
// indexes.
func (t *Table) Rewrite(probe *Probe, fn RewriteFunc) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	type edit struct {
		pos int
		row rowset.Row // nil deletes the row
	}
	var edits []edit
	deletes := 0
	visit := func(pos int) error {
		out, matched, err := fn(t.rows[pos])
		if err != nil || !matched {
			return err
		}
		if out == nil {
			deletes++
		} else if out, err = t.coerce(out); err != nil {
			return err
		}
		edits = append(edits, edit{pos: pos, row: out})
		return nil
	}
	positions, probed, err := t.probeLocked(probe)
	if err != nil {
		return 0, err
	}
	if probed {
		for _, pos := range positions {
			if err := visit(pos); err != nil {
				return 0, err
			}
		}
	} else {
		for pos := range t.rows {
			if err := visit(pos); err != nil {
				return 0, err
			}
		}
	}
	if len(edits) == 0 {
		return 0, nil
	}
	if deletes > 0 {
		rows := make([]rowset.Row, 0, len(t.rows)-deletes)
		next := 0
		for pos, r := range t.rows {
			if next < len(edits) && edits[next].pos == pos {
				r = edits[next].row
				next++
			}
			if r != nil {
				rows = append(rows, r)
			}
		}
		t.rows = rows
		t.rebuildIndexesLocked()
		return len(edits), nil
	}
	// Keep the spare capacity so the next Insert still appends in place.
	rows := make([]rowset.Row, len(t.rows), cap(t.rows))
	copy(rows, t.rows)
	for _, e := range edits {
		for _, idx := range t.indexes {
			idx.move(rows[e.pos][idx.ord], e.row[idx.ord], e.pos)
		}
		rows[e.pos] = e.row
	}
	t.rows = rows
	return len(edits), nil
}

// probeLocked returns the ascending row positions a probe selects, with
// ok=false when there is no probe or no index on its column (the caller then
// visits every row). t.mu must be held.
func (t *Table) probeLocked(probe *Probe) (positions []int, ok bool, err error) {
	if probe == nil {
		return nil, false, nil
	}
	ord, known := t.schema.Lookup(probe.Col)
	if !known {
		return nil, false, fmt.Errorf("storage: table %s: unknown column %q", t.name, probe.Col)
	}
	idx, indexed := t.indexes[t.schema.Column(ord).Name]
	if !indexed {
		return nil, false, nil
	}
	return idx.lookup(probe.Val), true, nil
}

// Scan returns a point-in-time snapshot of the table as a Rowset. The rows
// are shared (not copied); callers must not mutate them.
func (t *Table) Scan() *rowset.Rowset {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rs, err := rowset.FromRows(t.schema, t.rows)
	if err != nil {
		// Rows were validated on insert, so a failure here means the in-memory
		// table was corrupted (e.g. a caller mutated a shared row). That is a
		// sanctioned corruption panic, not a recoverable error.
		//
		//dmlint:allow nopanic — documented corruption path: rows were validated on insert, so failure means in-memory state was corrupted.
		panic(fmt.Sprintf("storage: corrupt table %s: %v", t.name, err))
	}
	return rs
}

// Cursor returns a streaming point-in-time snapshot of the table. Rows are
// shared with the table, not copied or re-normalized: inserted rows are
// immutable once stored, appends land beyond the snapshot's length, and
// Replace/Truncate/Rewrite swap in a fresh slice, so the snapshot stays
// consistent without holding the lock while the caller drains it.
func (t *Table) Cursor() rowset.Cursor {
	t.mu.RLock()
	rows := t.rows
	t.mu.RUnlock()
	return &tableCursor{schema: t.schema, rows: rows}
}

type tableCursor struct {
	schema *rowset.Schema
	rows   []rowset.Row
	i      int
}

func (c *tableCursor) Next() (rowset.Row, error) {
	if c.i >= len(c.rows) {
		return nil, nil
	}
	r := c.rows[c.i]
	c.i++
	return r, nil
}

func (c *tableCursor) Schema() *rowset.Schema { return c.schema }

func (c *tableCursor) Close() error {
	c.i = len(c.rows)
	c.rows = nil
	return nil
}

// CreateIndex builds a hash index on the named column. Indexing an already
// indexed column is a no-op.
func (t *Table) CreateIndex(col string) error {
	ord, ok := t.schema.Lookup(col)
	if !ok {
		return fmt.Errorf("storage: table %s: unknown column %q", t.name, col)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	key := t.schema.Column(ord).Name
	if _, exists := t.indexes[key]; exists {
		return nil
	}
	idx := newHashIndex(ord)
	for pos, r := range t.rows {
		idx.add(r[ord], pos)
	}
	t.indexes[key] = idx
	return nil
}

// HasIndex reports whether a hash index exists on the named column.
func (t *Table) HasIndex(col string) bool {
	ord, ok := t.schema.Lookup(col)
	if !ok {
		return false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, exists := t.indexes[t.schema.Column(ord).Name]
	return exists
}

// LookupEqual returns the rows whose indexed column equals v. It falls back
// to a scan when no index exists on col.
func (t *Table) LookupEqual(col string, v rowset.Value) (*rowset.Rowset, error) {
	rows, err := t.LookupEqualRows(col, v)
	if err != nil {
		return nil, err
	}
	out := rowset.New(t.schema)
	for _, r := range rows {
		if err := out.Append(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// LookupEqualRows is LookupEqual without the Rowset: it returns the matching
// rows directly (shared, read-only), in insertion order, doing O(bucket) work
// when an index exists on col. It is the streaming executor's point-lookup
// primitive, so it avoids both materialization and per-row re-normalization.
func (t *Table) LookupEqualRows(col string, v rowset.Value) ([]rowset.Row, error) {
	ord, ok := t.schema.Lookup(col)
	if !ok {
		return nil, fmt.Errorf("storage: table %s: unknown column %q", t.name, col)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if idx, ok := t.indexes[t.schema.Column(ord).Name]; ok {
		positions := idx.lookup(v)
		if len(positions) == 0 {
			return nil, nil
		}
		out := make([]rowset.Row, len(positions))
		for i, pos := range positions {
			out[i] = t.rows[pos]
		}
		return out, nil
	}
	var out []rowset.Row
	for _, r := range t.rows {
		if rowset.Equal(r[ord], v) {
			out = append(out, r)
		}
	}
	return out, nil
}

// hashIndex maps value keys to row positions. Each bucket holds its
// positions in ascending order, and a key whose last position leaves the
// index loses its bucket, so len(rows) is the column's exact distinct count.
type hashIndex struct {
	ord  int
	rows map[string][]int
}

func newHashIndex(ord int) *hashIndex {
	return &hashIndex{ord: ord, rows: make(map[string][]int)}
}

func (ix *hashIndex) add(v rowset.Value, pos int) {
	k := rowset.Key(v)
	ix.rows[k] = append(ix.rows[k], pos)
}

// lookup probes via an AppendKey scratch buffer and a map[string(bytes)]
// access, which the compiler compiles without materializing the key string —
// the probe itself does not allocate (the small stack buffer escapes only if
// the key is unusually long).
func (ix *hashIndex) lookup(v rowset.Value) []int {
	var scratch [48]byte
	return ix.rows[string(rowset.AppendKey(scratch[:0], v))]
}

// move re-files pos from the bucket of old to the bucket of new when their
// keys differ, keeping both buckets ascending and dropping an emptied one.
func (ix *hashIndex) move(old, new rowset.Value, pos int) {
	var oldBuf, newBuf [48]byte
	oldKey, newKey := rowset.AppendKey(oldBuf[:0], old), rowset.AppendKey(newBuf[:0], new)
	if bytes.Equal(oldKey, newKey) {
		return
	}
	from := ix.rows[string(oldKey)]
	if i, found := slices.BinarySearch(from, pos); found {
		if len(from) == 1 {
			delete(ix.rows, string(oldKey))
		} else {
			ix.rows[string(oldKey)] = slices.Delete(from, i, i+1)
		}
	}
	to := ix.rows[string(newKey)]
	i, _ := slices.BinarySearch(to, pos)
	ix.rows[string(newKey)] = slices.Insert(to, i, pos)
}

func (ix *hashIndex) reset() {
	ix.rows = make(map[string][]int)
}
