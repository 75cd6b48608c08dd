package sqlengine

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/rowset"
	"repro/internal/storage"
)

// sizedEngine builds T (id LONG, g TEXT, age LONG) with n rows and a hash
// index on id, and pins the morsel worker count to 4 so the parallel path is
// open regardless of the host's cores (testing.AllocsPerRun runs at
// GOMAXPROCS=1).
func sizedEngine(t *testing.T, n int) *Engine {
	t.Helper()
	e := NewEngine(storage.NewDatabase())
	e.Vec.Workers = 4
	if _, err := e.Exec("CREATE TABLE T (id LONG, g TEXT, age LONG)"); err != nil {
		t.Fatal(err)
	}
	tbl, err := e.DB.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tbl.Insert(rowset.Row{int64(i), string(rune('a' + i%5)), int64(i % 90)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPointLookupAllocsIndependentOfTableSize: an indexed point lookup is
// planned once, so what it allocates does not depend on how many rows the
// table holds. Planning a large-table statement twice (once for the morsel
// path to decline, once for the sequential pipeline) shows up here as extra
// allocations on the 20k-row table.
func TestPointLookupAllocsIndependentOfTableSize(t *testing.T) {
	const q = "SELECT id, g, age FROM T WHERE id = 7"
	allocs := make(map[int]float64)
	for _, n := range []int{500, 20000} {
		e := sizedEngine(t, n)
		allocs[n] = testing.AllocsPerRun(50, func() {
			rs, err := e.Exec(q)
			if err != nil || rs.Len() != 1 {
				t.Fatalf("%d rows: %v rows, err %v", n, rs, err)
			}
		})
	}
	t.Logf("point lookup allocs by table size: %v", allocs)
	if allocs[500] != allocs[20000] {
		t.Fatalf("point lookup allocs: %v on 500 rows, %v on 20000 rows; want equal", allocs[500], allocs[20000])
	}
}

// TestTopDispatchesNoMorsels: a non-aggregating TOP runs sequentially and
// stops early, even on a table large enough for the morsel path.
func TestTopDispatchesNoMorsels(t *testing.T) {
	e := sizedEngine(t, 20000)
	reg := obs.NewRegistry(0)
	e.Instrument(reg)
	for _, q := range []string{
		"SELECT TOP 5 id, g FROM T",
		"SELECT TOP 5 id, g FROM T WHERE age > 30",
	} {
		rs, err := e.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if rs.Len() != 5 {
			t.Errorf("%s: %d rows, want 5", q, rs.Len())
		}
	}
	if n := reg.Counter(obs.MetricSQLMorselsTotal).Value(); n != 0 {
		t.Fatalf("TOP dispatched %d morsels, want 0", n)
	}
	// The same scan without TOP does fan out, so the zero above is the TOP
	// rule and not a closed morsel path.
	if _, err := e.Exec("SELECT id, g FROM T WHERE age > 30"); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter(obs.MetricSQLMorselsTotal).Value(); n == 0 {
		t.Fatal("untruncated scan dispatched no morsels")
	}
}
