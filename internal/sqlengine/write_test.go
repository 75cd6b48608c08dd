package sqlengine

import (
	"fmt"
	"testing"

	"repro/internal/rowset"
)

// TestWriteProbeMatchesFullScan runs each UPDATE and predicated DELETE on
// two copies of the running example, one with hash indexes on
// [Customer ID] and Gender and one without, and requires the same affected
// count (or the same error) and the same table afterwards. The indexed copy
// takes its candidate rows from an index probe wherever a conjunct passes
// the pushdown rules; the other visits every row.
func TestWriteProbeMatchesFullScan(t *testing.T) {
	stmts := []string{
		"UPDATE Customers SET Age = 40 WHERE [Customer ID] = 2",
		"UPDATE Customers SET Age = Age + 1 WHERE 3 = [Customer ID]",
		"UPDATE Customers SET Age = 1 WHERE [Customer ID] = 2.0",
		"UPDATE Customers SET [Customer ID] = 7 WHERE [Customer ID] = 1",
		"UPDATE Customers SET Gender = 'Female' WHERE Gender = 'Male' AND Age > 40",
		"UPDATE Customers SET Gender = NULL WHERE [Customer ID] = 2",
		"UPDATE Customers SET Age = 1 WHERE [Customer ID] = 99",
		"UPDATE Customers SET Age = 1 WHERE [Customer ID] = 1 OR Age > 30",
		"UPDATE Customers SET Age = 1 WHERE [Customer ID] = NULL",
		"UPDATE Customers SET Age = 'old' WHERE [Customer ID] = 1",
		"UPDATE Customers SET Age = 1 WHERE [Customer ID] = 1 AND Nope = 2",
		"UPDATE Customers SET Age = 1 WHERE Customers.[Customer ID] = 1",
		"UPDATE Customers SET Age = 2",
		"DELETE FROM Customers WHERE [Customer ID] = 2",
		"DELETE FROM Customers WHERE Gender = 'Male' AND [Customer ID] = 3",
		"DELETE FROM Customers WHERE [Customer ID] = 5",
		"DELETE FROM Customers WHERE Age > 30",
	}
	for _, q := range stmts {
		t.Run(q, func(t *testing.T) {
			plain, indexed := newTestEngine(t), newTestEngine(t)
			tbl, err := indexed.DB.Table("Customers")
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []string{"Customer ID", "Gender"} {
				if err := tbl.CreateIndex(c); err != nil {
					t.Fatal(err)
				}
			}
			// Add a duplicate Gender so buckets hold several positions.
			for _, e := range []*Engine{plain, indexed} {
				mustQuery(t, e, "INSERT INTO Customers VALUES (4, 'Male', 'Red', 44), (5, NULL, 'Red', 19)")
			}
			want, wantErr := plain.Exec(q)
			got, gotErr := indexed.Exec(q)
			if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
				t.Fatalf("error: indexed %v, full scan %v", gotErr, wantErr)
			}
			if wantErr == nil && !rowsetsEqual(got, want) {
				t.Fatalf("result: indexed %v, full scan %v", got.Rows(), want.Rows())
			}
			after := "SELECT * FROM Customers"
			if a, b := mustQuery(t, indexed, after), mustQuery(t, plain, after); !rowsetsEqual(a, b) {
				t.Fatalf("table after: indexed %v, full scan %v", a.Rows(), b.Rows())
			}
			// The indexes still answer point lookups like a scan does.
			for _, id := range []int64{1, 2, 3, 4, 5, 7} {
				probe := fmt.Sprintf("SELECT * FROM Customers WHERE [Customer ID] = %d", id)
				if a, b := mustQuery(t, indexed, probe), mustQuery(t, plain, probe); !rowsetsEqual(a, b) {
					t.Fatalf("%s: indexed %v, full scan %v", probe, a.Rows(), b.Rows())
				}
			}
		})
	}
}

func rowsetsEqual(a, b *rowset.Rowset) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		if len(ra) != len(rb) {
			return false
		}
		for j := range ra {
			if !rowset.Equal(ra[j], rb[j]) {
				return false
			}
		}
	}
	return true
}

// TestWriteProbe pins which WHERE clauses give a write an index probe: the
// conjuncts planPushdown would push into a scan of the table, and no other.
func TestWriteProbe(t *testing.T) {
	e := newTestEngine(t)
	tbl, err := e.DB.Table("Customers")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("Customer ID"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		where string
		want  rowset.Value // nil: no probe
	}{
		{"[Customer ID] = 2", int64(2)},
		{"Age > 3 AND 2 = [Customer ID]", int64(2)},
		{"[Customer ID] = 2.5", 2.5},
		{"[Customer ID] = 2 OR Age > 3", nil},
		{"[Customer ID] = NULL", nil},
		{"[Customer ID] = '2'", nil},
		{"Gender = 'Male'", nil},
		{"Customers.[Customer ID] = 2", nil},
	} {
		st, err := Parse("DELETE FROM Customers WHERE " + tc.where)
		if err != nil {
			t.Fatal(err)
		}
		p := writeProbe(tbl, st.(*DeleteStmt).Where)
		switch {
		case tc.want == nil && p != nil:
			t.Errorf("%s: probe %+v, want none", tc.where, *p)
		case tc.want != nil && (p == nil || p.Col != "Customer ID" || p.Val != tc.want):
			t.Errorf("%s: probe %+v, want [Customer ID] = %v", tc.where, p, tc.want)
		}
	}
}

// TestDottedColumnProbe pins the index a pushed equality probes when a
// column name contains a dot: the column the predicate resolves to, not the
// column named by the text after the last dot.
func TestDottedColumnProbe(t *testing.T) {
	e := newTestEngine(t)
	mustQuery(t, e, "CREATE TABLE D ([a.b] LONG, b LONG)")
	mustQuery(t, e, "INSERT INTO D VALUES (1, 2), (2, 1)")
	tbl, err := e.DB.Table("D")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("b"); err != nil {
		t.Fatal(err)
	}
	if rs := mustQuery(t, e, "SELECT * FROM D WHERE D.[a.b] = 1"); rs.Len() != 1 || rs.Row(0)[0] != int64(1) {
		t.Fatalf("SELECT: %v, want the row with [a.b] = 1", rs.Rows())
	}
	mustQuery(t, e, "UPDATE D SET b = 5 WHERE [a.b] = 1")
	if rs := mustQuery(t, e, "SELECT D.b FROM D WHERE D.b = 5"); rs.Len() != 1 {
		t.Fatalf("UPDATE changed %d rows to b = 5, want 1", rs.Len())
	}
}
