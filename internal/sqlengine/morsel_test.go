package sqlengine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rowset"
	"repro/internal/storage"
)

// forcedEngine builds a second engine over an identical database with the
// morsel-parallel path forced on: every eligible statement fans out over
// 16-row morsels on 4 workers regardless of table size or core count, so the
// parallel operators run even on the small differential fixtures and on
// single-core hosts.
func forcedEngine(t *testing.T) *Engine {
	t.Helper()
	e := differentialDB(t)
	e.Vec = VecConfig{Force: true, Workers: 4, MorselSize: 16}
	return e
}

// TestDifferentialThreeWay is the three-way oracle for the batch/morsel
// rewrite: every fixture runs through (1) the pre-rewrite materialized
// executor, (2) the sequential batch-vectorized pipeline, and (3) the forced
// morsel-parallel path, and all three must agree byte-for-byte — same column
// names, same declared types, same rows in the same order. Morsel-order
// merging makes even the parallel path's row order identical, so no fixture
// needs an unordered comparison.
func TestDifferentialThreeWay(t *testing.T) {
	seq := differentialDB(t)
	par := forcedEngine(t)
	reg := obs.NewRegistry(0)
	par.Instrument(reg)
	for _, q := range differentialFixtures {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: parse: %v", q, err)
		}
		sel := stmt.(*SelectStmt)
		want, err := oracleQuery(seq, sel)
		if err != nil {
			t.Fatalf("%s: oracle: %v", q, err)
		}
		got, err := seq.Query(sel)
		if err != nil {
			t.Fatalf("%s: sequential engine: %v", q, err)
		}
		diffRowsets(t, q+" [sequential]", got, want)

		pstmt, err := Parse(q) // fresh AST: plans must not leak state across engines
		if err != nil {
			t.Fatalf("%s: parse: %v", q, err)
		}
		pgot, err := par.Query(pstmt.(*SelectStmt))
		if err != nil {
			t.Fatalf("%s: parallel engine: %v", q, err)
		}
		diffRowsets(t, q+" [parallel]", pgot, want)
	}
	// The forced engine must actually have exercised the morsel path: the
	// corpus contains plenty of single-table order-insensitive fixtures.
	if n := reg.Counter(obs.MetricSQLParallelScansTotal).Value(); n == 0 {
		t.Fatal("forced engine never took the morsel path over the fixture corpus")
	}
	if n := reg.Counter(obs.MetricSQLMorselsTotal).Value(); n == 0 {
		t.Fatal("forced engine dispatched no morsels")
	}
}

// TestDifferentialErrorsAgreeParallel mirrors TestDifferentialErrorsAgree on
// the forced-parallel engine: eligibility checks must hand malformed
// statements back to the sequential path so error text stays identical.
func TestDifferentialErrorsAgreeParallel(t *testing.T) {
	seq := differentialDB(t)
	par := forcedEngine(t)
	for _, q := range []string{
		"SELECT nope FROM C",
		"SELECT name FROM C WHERE nope = 'rome'",
		"SELECT *, COUNT(*) FROM C",
		"SELECT STDEV(nope) FROM C",
	} {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: parse: %v", q, err)
		}
		_, sErr := seq.Query(stmt.(*SelectStmt))
		stmt, _ = Parse(q)
		_, pErr := par.Query(stmt.(*SelectStmt))
		if sErr == nil || pErr == nil {
			t.Errorf("%s: sequential err=%v, parallel err=%v (want both non-nil)", q, sErr, pErr)
			continue
		}
		if sErr.Error() != pErr.Error() {
			t.Errorf("%s: error mismatch\n  sequential: %v\n  parallel:   %v", q, sErr, pErr)
		}
	}
}

// TestMorselEligibility pins down which statements take the parallel path:
// order-insensitive single-table scans and mergeable aggregations go
// parallel; ORDER BY, DISTINCT, TOP, DISTINCT aggregates, two-pass
// aggregates, joins, views, and index-pushdown probes stay sequential.
func TestMorselEligibility(t *testing.T) {
	cases := []struct {
		q        string
		parallel bool
	}{
		{"SELECT name FROM C WHERE age > 30", true},
		// TOP stops the scan once it has its rows; a morsel fan-out would
		// scan and project every morsel and then truncate (on 200k rows,
		// ~25 ms against ~7 µs sequential).
		{"SELECT TOP 5 name FROM C", false},
		{"SELECT city, COUNT(*), SUM(score), AVG(age), MIN(id), MAX(id) FROM C GROUP BY city", true},
		{"SELECT COUNT(*) FROM C", true},
		{"SELECT city, COUNT(*) FROM C GROUP BY city ORDER BY city", true}, // sort is post-grouping
		{"SELECT name FROM C ORDER BY age", false},
		{"SELECT DISTINCT city FROM C", false},
		{"SELECT COUNT(DISTINCT city) FROM C", false},
		{"SELECT STDEV(score) FROM C", false},
		{"SELECT VAR(score) FROM C", false},
		{"SELECT C.name FROM C JOIN O ON C.id = O.cid", false},
		// A scan over a view stays sequential, but materializing the view's
		// body (itself an eligible single-table SELECT) parallelizes, so the
		// counter legitimately ticks.
		{"SELECT id FROM V", true},
		{"SELECT name FROM C WHERE city = 'rome'", false},          // index pushdown wins
		{"SELECT name FROM C WHERE city = 'rome' OR id = 1", true}, // OR blocks pushdown
	}
	for _, c := range cases {
		e := forcedEngine(t)
		reg := obs.NewRegistry(0)
		e.Instrument(reg)
		if _, err := e.Exec(c.q); err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		got := reg.Counter(obs.MetricSQLParallelScansTotal).Value() > 0
		if got != c.parallel {
			t.Errorf("%s: parallel=%v, want %v", c.q, got, c.parallel)
		}
	}
}

// TestMorselCancellation: a pre-cancelled context aborts the morsel path
// before (or promptly after) the fan-out, same contract as the sequential
// pipeline's cancelCursor.
func TestMorselCancellation(t *testing.T) {
	e := forcedEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ExecContext(ctx, "SELECT city, COUNT(*) FROM C GROUP BY city"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := e.ExecContext(ctx, "SELECT name FROM C WHERE age > 20"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestMorselSpanShape: the parallel path emits the same span kinds in the
// same order as the sequential pipeline (scan → filter → group-by/project),
// with the scan label carrying the fan-out so EXPLAIN ANALYZE shows it.
func TestMorselSpanShape(t *testing.T) {
	e := forcedEngine(t)
	tr := obs.NewTrace("q", "")
	ctx := obs.WithTrace(context.Background(), tr)
	if _, err := e.ExecContext(ctx, "SELECT city, COUNT(*) FROM C WHERE age > 20 GROUP BY city"); err != nil {
		t.Fatal(err)
	}
	root := tr.Root()
	if root == nil || len(root.Children) == 0 {
		t.Fatal("no trace recorded")
	}
	sel := root.Children[0]
	var kinds []string
	for _, c := range sel.Children {
		kinds = append(kinds, c.Kind)
	}
	want := []string{"scan", "filter", "group-by"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("span kinds = %v, want %v", kinds, want)
	}
	scan := sel.Children[0]
	if !strings.Contains(scan.Label, "morsels=") || !strings.Contains(scan.Label, "workers=4") {
		t.Errorf("scan label %q missing morsel fan-out", scan.Label)
	}
}

// TestBuildKeysParallelMatchesSequential: the parallel hash-join key
// precompute produces exactly the sequential keys (buildKeys is order- and
// content-deterministic regardless of worker count).
func TestBuildKeysParallelMatchesSequential(t *testing.T) {
	n := parallelKeyMin + 123
	rows := make([]rowset.Row, n)
	for i := range rows {
		var v rowset.Value = int64(i % 97)
		if i%13 == 0 {
			v = nil
		}
		rows[i] = rowset.Row{v}
	}
	seq := buildKeys(rows, 0, 1)
	par := buildKeys(rows, 0, 4)
	if len(seq) != len(par) {
		t.Fatalf("len %d != %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("key %d: %q != %q", i, seq[i], par[i])
		}
	}
	for i, r := range rows {
		if (r[0] == nil) != (seq[i] == "") {
			t.Fatalf("row %d: nil-key invariant broken", i)
		}
	}
}

// TestMorselFiltersLargeTable pushes a table past DefaultBatchSize and the
// morsel size so multi-batch, multi-morsel merging is exercised with a
// filter's selection vectors in play.
func TestMorselFiltersLargeTable(t *testing.T) {
	db := storage.NewDatabase()
	seq := NewEngine(db)
	if _, err := seq.Exec("CREATE TABLE T (id LONG, g TEXT, v DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("T")
	n := 3*rowset.DefaultBatchSize + 77
	for i := 0; i < n; i++ {
		var v rowset.Value = float64(i%7) * 0.5
		if i%19 == 0 {
			v = nil
		}
		if err := tbl.Insert(rowset.Row{int64(i), string(rune('a' + i%5)), v}); err != nil {
			t.Fatal(err)
		}
	}
	par := NewEngine(db)
	par.Vec = VecConfig{Force: true, Workers: 4, MorselSize: 512}
	for _, q := range []string{
		"SELECT id, v FROM T WHERE id > 100 AND g = 'c'",
		"SELECT g, COUNT(*), SUM(v), MIN(v), MAX(id), AVG(v) FROM T WHERE v IS NOT NULL GROUP BY g",
		"SELECT COUNT(*) FROM T WHERE v IS NULL",
		"SELECT TOP 10 id FROM T WHERE g = 'b'",
	} {
		sGot, err := seq.Exec(q)
		if err != nil {
			t.Fatalf("%s: sequential: %v", q, err)
		}
		pGot, err := par.Exec(q)
		if err != nil {
			t.Fatalf("%s: parallel: %v", q, err)
		}
		diffRowsets(t, q, pGot, sGot)
	}
}
