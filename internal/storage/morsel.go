package storage

import "repro/internal/rowset"

// Morsel-driven scan support. A morsel is a fixed-size contiguous row range
// of a table snapshot; parallel scan consumers pull the snapshot once, split
// it into morsels, and hand each morsel to a worker. Because morsels
// partition the snapshot in row order, a consumer that merges per-morsel
// results in morsel order reconstructs exactly the sequential scan order —
// the property the engine leans on for byte-identical parallel GROUP BY.

// DefaultMorselSize is the row count per morsel: big enough that per-morsel
// scheduling overhead is noise, small enough to load-balance skewed filters
// across workers.
const DefaultMorselSize = 4096

// Morsel is a half-open row range [Lo, Hi) over a snapshot.
type Morsel struct {
	Lo, Hi int
}

// MorselRanges splits n rows into contiguous morsels of at most size rows
// (DefaultMorselSize when size <= 0). n == 0 yields no morsels.
func MorselRanges(n, size int) []Morsel {
	if size <= 0 {
		size = DefaultMorselSize
	}
	if n <= 0 {
		return nil
	}
	out := make([]Morsel, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, Morsel{Lo: lo, Hi: hi})
	}
	return out
}

// Snapshot returns the table's current rows as a point-in-time snapshot with
// the same consistency argument as Cursor: rows are immutable once stored,
// appends land beyond the snapshot's length, and Replace/Truncate/Rewrite
// swap in a fresh slice. Callers must treat the slice and its rows as read-only.
func (t *Table) Snapshot() []rowset.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// NextBatch makes the table scan batch-native: each batch is a zero-copy
// subslice of the snapshot. Interleaving Next and NextBatch pulls is
// undefined, per the rowset.BatchCursor contract.
func (c *tableCursor) NextBatch() (rowset.Batch, error) {
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
