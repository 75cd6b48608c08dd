package storage

import (
	"fmt"
	"testing"

	"repro/internal/rowset"
)

// setName is a RewriteFunc that renames the rows whose id is in ids.
func setName(name rowset.Value, ids ...int64) RewriteFunc {
	return func(r rowset.Row) (rowset.Row, bool, error) {
		for _, id := range ids {
			if r[0] == id {
				nr := r.Clone()
				nr[1] = name
				return nr, true, nil
			}
		}
		return nil, false, nil
	}
}

// deleteIDs is a RewriteFunc that deletes the rows whose id is in ids.
func deleteIDs(ids ...int64) RewriteFunc {
	return func(r rowset.Row) (rowset.Row, bool, error) {
		for _, id := range ids {
			if r[0] == id {
				return nil, true, nil
			}
		}
		return nil, false, nil
	}
}

// indexedTable builds a table indexed on id and name holding n rows whose
// names cycle through n0..n4, with a NULL name on every seventh row.
func indexedTable(t *testing.T, n int) *Table {
	t.Helper()
	tbl := NewTable("t", testSchema())
	for _, col := range []string{"id", "name"} {
		if err := tbl.CreateIndex(col); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		var name rowset.Value = fmt.Sprintf("n%d", i%5)
		if i%7 == 0 {
			name = nil
		}
		if err := tbl.Insert(rowset.Row{int64(i), name, float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestStatsMatchBruteForce(t *testing.T) {
	tbl := indexedTable(t, 40)
	steps := []struct {
		name  string
		apply func() error
	}{
		{"insert", func() error { return tbl.Insert(rowset.Row{int64(40), "fresh", 1.0}) }},
		{"update moving a key into a new bucket", func() error {
			_, err := tbl.Rewrite(&Probe{Col: "id", Val: int64(3)}, setName("solo", 3))
			return err
		}},
		{"update emptying a bucket", func() error {
			// "fresh" held only id 40; moving it to n1 must drop the bucket.
			_, err := tbl.Rewrite(&Probe{Col: "name", Val: "fresh"}, setName("n1", 40))
			return err
		}},
		{"update of an unindexed probe column", func() error {
			_, err := tbl.Rewrite(&Probe{Col: "score", Val: 5.0}, setName(nil, 5))
			return err
		}},
		{"update keeping every key", func() error {
			_, err := tbl.Rewrite(nil, setName("n2", 2))
			return err
		}},
		{"delete", func() error {
			_, err := tbl.Rewrite(&Probe{Col: "name", Val: "n4"}, deleteIDs(4, 9))
			return err
		}},
		{"replace", func() error {
			return tbl.Replace([]rowset.Row{{int64(1), "a", 1.0}, {int64(2), "a", 2.0}, {int64(3), nil, 3.0}})
		}},
		{"truncate", func() error { tbl.Truncate(); return nil }},
	}
	for _, step := range steps {
		if err := step.apply(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		snap := tbl.Snapshot()
		stats := tbl.Stats()
		if stats.Rows != len(snap) {
			t.Errorf("%s: Stats().Rows = %d, want %d", step.name, stats.Rows, len(snap))
		}
		for ord, col := range []string{"id", "name"} {
			seen := make(map[string]bool)
			for _, r := range snap {
				seen[rowset.Key(r[ord])] = true
			}
			if got := stats.DistinctCount(col); got != len(seen) {
				t.Errorf("%s: DistinctCount(%s) = %d, want %d", step.name, col, got, len(seen))
			}
		}
	}
}

func TestRewriteKeepsBucketsInPositionOrder(t *testing.T) {
	tbl := indexedTable(t, 30)
	// Move ids 28, 3 and 16 into n1's bucket in an order that differs from
	// their positions.
	for _, id := range []int64{28, 3, 16} {
		if n, err := tbl.Rewrite(&Probe{Col: "id", Val: id}, setName("n1", id)); err != nil || n != 1 {
			t.Fatalf("update id %d: (%d, %v), want (1, nil)", id, n, err)
		}
	}
	rows, err := tbl.LookupEqualRows("name", "n1")
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for _, r := range tbl.Snapshot() {
		if r[1] == "n1" {
			want = append(want, r[0].(int64))
		}
	}
	if len(rows) != len(want) {
		t.Fatalf("bucket holds %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r[0] != want[i] {
			t.Fatalf("bucket row %d: id %v, want %d (position order)", i, r[0], want[i])
		}
	}
}

func TestRewriteKeepsEarlierViews(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   RewriteFunc
	}{
		{"update", setName("changed", 1, 2)},
		{"delete", deleteIDs(1, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl := indexedTable(t, 5)
			cur := tbl.Cursor()
			defer cur.Close() //nolint:errcheck // table cursors never fail to close
			snap := tbl.Snapshot()
			before := make([]rowset.Row, len(snap))
			for i, r := range snap {
				before[i] = r.Clone()
			}
			if n, err := tbl.Rewrite(nil, tc.fn); err != nil || n != 2 {
				t.Fatalf("rewrite: (%d, %v), want (2, nil)", n, err)
			}
			for i := range before {
				r, err := cur.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !rowset.Equal(r[1], before[i][1]) || !rowset.Equal(snap[i][1], before[i][1]) {
					t.Fatalf("row %d: cursor %v, snapshot %v, want the pre-rewrite %v", i, r, snap[i], before[i])
				}
			}
		})
	}
}

func TestRewriteFailureLeavesTableUnchanged(t *testing.T) {
	tbl := indexedTable(t, 10)
	before := tbl.Snapshot()
	for _, tc := range []struct {
		name string
		fn   RewriteFunc
	}{
		{"callback error", func(r rowset.Row) (rowset.Row, bool, error) {
			if r[0] == int64(6) {
				return nil, false, fmt.Errorf("boom")
			}
			return rowset.Row{r[0], "x", r[2]}, true, nil
		}},
		{"uncoercible value", func(r rowset.Row) (rowset.Row, bool, error) {
			return rowset.Row{"not a number", r[1], r[2]}, true, nil
		}},
		{"wrong arity", func(r rowset.Row) (rowset.Row, bool, error) {
			return rowset.Row{r[0]}, true, nil
		}},
	} {
		if _, err := tbl.Rewrite(nil, tc.fn); err == nil {
			t.Errorf("%s: rewrite succeeded, want an error", tc.name)
		}
		after := tbl.Snapshot()
		if len(after) != len(before) || &after[0] != &before[0] {
			t.Fatalf("%s: failed rewrite published a new row slice", tc.name)
		}
	}
	if _, err := tbl.Rewrite(&Probe{Col: "nosuch", Val: int64(1)}, deleteIDs(1)); err == nil {
		t.Error("probe on an unknown column must error")
	}
}

func TestRewriteCoercesChangedRows(t *testing.T) {
	tbl := indexedTable(t, 3)
	n, err := tbl.Rewrite(&Probe{Col: "id", Val: int64(1)}, func(r rowset.Row) (rowset.Row, bool, error) {
		return rowset.Row{"1", r[1], 7}, true, nil
	})
	if err != nil || n != 1 {
		t.Fatalf("rewrite: (%d, %v), want (1, nil)", n, err)
	}
	rows, err := tbl.LookupEqualRows("id", int64(1))
	if err != nil || len(rows) != 1 {
		t.Fatalf("lookup: (%v, %v)", rows, err)
	}
	if rows[0][0] != int64(1) || rows[0][2] != float64(7) {
		t.Fatalf("rewritten row %#v not coerced to the column types", rows[0])
	}
}
