package sqlengine

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rowset"
	"repro/internal/storage"
)

// costEngine builds SMALL (5 rows) and BIG (100 rows, 50 distinct G values,
// 100 distinct ID values) with indexes on BIG.ID and BIG.G.
func costEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine(storage.NewDatabase())
	steps := []string{
		"CREATE TABLE SMALL (ID LONG, V TEXT)",
		"CREATE TABLE BIG (ID LONG, G TEXT)",
	}
	for _, s := range steps {
		if _, err := e.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 5; i++ {
		if _, err := e.Exec(fmt.Sprintf("INSERT INTO SMALL VALUES (%d, 'v%d')", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	var ins strings.Builder
	ins.WriteString("INSERT INTO BIG VALUES ")
	for i := 1; i <= 100; i++ {
		if i > 1 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, 'g%d')", i, i%50)
	}
	if _, err := e.Exec(ins.String()); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"ID", "G"} {
		tbl, err := e.DB.Table("BIG")
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.CreateIndex(col); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// findSpans flattens a span tree to kind → labels.
func findSpans(root *obs.Span, kind string) []string {
	var out []string
	root.Walk(func(sp *obs.Span, depth int) {
		if sp.Kind == kind {
			out = append(out, sp.Label)
		}
	})
	return out
}

func runTraced(t *testing.T, e *Engine, q string) *obs.Span {
	t.Helper()
	tr := obs.NewTrace(q, "")
	if _, err := e.ExecContext(obs.WithTrace(t.Context(), tr), q); err != nil {
		t.Fatal(err)
	}
	return tr.Root()
}

// TestJoinBuildSideIsCostBased: the hash join builds on whichever input the
// stats say is smaller, regardless of join order in the statement text.
func TestJoinBuildSideIsCostBased(t *testing.T) {
	e := costEngine(t)
	// Small table on the left: build left, stream the big probe side.
	root := runTraced(t, e, "SELECT SMALL.V, BIG.G FROM SMALL JOIN BIG ON SMALL.ID = BIG.ID")
	joins := findSpans(root, "join")
	if len(joins) != 1 || !strings.Contains(joins[0], "build=left") {
		t.Errorf("small-left join label = %v, want build=left", joins)
	}
	// Small table on the right: build right.
	root = runTraced(t, e, "SELECT SMALL.V, BIG.G FROM BIG JOIN SMALL ON BIG.ID = SMALL.ID")
	joins = findSpans(root, "join")
	if len(joins) != 1 || !strings.Contains(joins[0], "build=right") {
		t.Errorf("small-right join label = %v, want build=right", joins)
	}
}

// TestScanSpanCarriesEstimate: scan labels surface the planner's cardinality
// estimate, shrunk by index pushdown.
func TestScanSpanCarriesEstimate(t *testing.T) {
	e := costEngine(t)
	root := runTraced(t, e, "SELECT G FROM BIG")
	scans := findSpans(root, "scan")
	if len(scans) != 1 || !strings.Contains(scans[0], "est=100") {
		t.Errorf("full scan label = %v, want est=100", scans)
	}
	// An indexed point predicate shrinks the estimate to rows/distinct.
	root = runTraced(t, e, "SELECT G FROM BIG WHERE ID = 7")
	scans = findSpans(root, "scan")
	if len(scans) != 1 || !strings.Contains(scans[0], "index=ID") || !strings.Contains(scans[0], "est=1") {
		t.Errorf("indexed scan label = %v, want index=ID est=1", scans)
	}
}

// TestPushdownPicksMostSelectiveIndex: with two indexed equality conjuncts on
// one scan, the planner pushes the one whose distinct count promises fewer
// rows (ID: 100 distinct → est 1) and leaves the other (G: 50 distinct →
// est 2) as a residual filter.
func TestPushdownPicksMostSelectiveIndex(t *testing.T) {
	e := costEngine(t)
	for _, q := range []string{
		"SELECT G FROM BIG WHERE G = 'g7' AND ID = 7",
		"SELECT G FROM BIG WHERE ID = 7 AND G = 'g7'",
	} {
		root := runTraced(t, e, q)
		scans := findSpans(root, "scan")
		if len(scans) != 1 || !strings.Contains(scans[0], "index=ID") {
			t.Errorf("%q scan label = %v, want index=ID (most selective) regardless of conjunct order", q, scans)
		}
	}
}

// planLabels flattens a span tree to "kind label" lines, dropping the
// runtime-only " batches=N" annotation execution appends to operator labels.
func planLabels(root *obs.Span) []string {
	var out []string
	root.Walk(func(sp *obs.Span, depth int) {
		out = append(out, sp.Kind+" "+batchesSuffix.ReplaceAllString(sp.Label, ""))
	})
	return out
}

var batchesSuffix = regexp.MustCompile(`\s*batches=\d+$`)

// TestCostPlanSpanMirrorsExecution: Engine.PlanSpan (the EXPLAIN surface)
// reports exactly the decisions execution makes — build side, index probe,
// and morsel fan-out — in the same span tree.
func TestCostPlanSpanMirrorsExecution(t *testing.T) {
	e := costEngine(t)
	e.Vec.Workers = 4
	if _, err := e.Exec("CREATE TABLE HUGE (ID LONG, G TEXT)"); err != nil {
		t.Fatal(err)
	}
	huge, err := e.DB.Table("HUGE")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < defaultVecThreshold+1000; i++ {
		if err := huge.Insert(rowset.Row{int64(i), fmt.Sprintf("g%d", i%50)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := huge.CreateIndex("ID"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT SMALL.V, BIG.G FROM BIG JOIN SMALL ON BIG.ID = SMALL.ID",
		"SELECT G FROM BIG WHERE G = 'g7' AND ID = 7",
		"SELECT G FROM HUGE WHERE G > 'g3'",       // morsel-parallel
		"SELECT G, COUNT(*) FROM HUGE GROUP BY G", // morsel-parallel
		"SELECT G FROM HUGE WHERE ID = 7",         // index probe
		"SELECT TOP 3 G FROM HUGE WHERE G > 'g3'", // sequential: TOP
		"SELECT HUGE.G FROM HUGE JOIN SMALL ON HUGE.ID = SMALL.ID",
	} {
		st, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		plan := planLabels(e.PlanSpan(st.(*SelectStmt)))
		exec := planLabels(runTraced(t, e, q).Children[0])
		if strings.Join(plan, "\n") != strings.Join(exec, "\n") {
			t.Errorf("%q:\n  planned  %q\n  executed %q", q, plan, exec)
		}
	}
}
