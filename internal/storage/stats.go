package storage

import "strings"

// TableStats is a point-in-time cardinality summary of one table: the row
// count plus the number of distinct values per indexed column. The
// cost-based parts of the SQL planner use it to estimate the selectivity of
// an equality predicate (rows / distinct) and to pick hash-join build sides
// when exact cursor sizes are unknown.
type TableStats struct {
	// Rows is the table's row count when the stats were taken.
	Rows int
	// Distinct maps lower-cased bare names of indexed columns to their
	// distinct value counts (NULL counts as one value).
	Distinct map[string]int
}

// DistinctCount returns the distinct value count for col (case-insensitive),
// or 0 when the column is unknown or not indexed.
func (s *TableStats) DistinctCount(col string) int {
	if s == nil {
		return 0
	}
	return s.Distinct[strings.ToLower(col)]
}

// EqEstimate estimates how many rows an equality predicate on col selects:
// rows divided by the column's distinct count (at least 1 while the table is
// non-empty), or the full row count when the column has no stats.
func (s *TableStats) EqEstimate(col string) int {
	if s == nil {
		return 0
	}
	d := s.DistinctCount(col)
	if d <= 0 {
		return s.Rows
	}
	est := s.Rows / d
	if est < 1 && s.Rows > 0 {
		est = 1
	}
	return est
}

// Stats returns cardinality statistics read off the table itself: the row
// count and, for every indexed column, the number of hash-index buckets.
// Index buckets are keyed by rowset.Key and every write keeps them exact, so
// the distinct counts are exact too, and a read after a write costs O(number
// of indexes) rather than a pass over the rows. Unindexed columns have no
// distinct count; the planner only asks about indexed ones, since an
// equality is pushed into a scan only when the column is indexed.
func (t *Table) Stats() *TableStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := &TableStats{Rows: len(t.rows), Distinct: make(map[string]int, len(t.indexes))}
	for name, idx := range t.indexes {
		s.Distinct[strings.ToLower(name)] = len(idx.rows)
	}
	return s
}
