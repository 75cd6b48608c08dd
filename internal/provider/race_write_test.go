package provider

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentWritesAreNotLost has sessions write disjoint keys of one
// table at once — INSERT of new ids, UPDATE … WHERE ID = k, and a predicated
// DELETE — and then reads every row back. UPDATE and DELETE are
// read-modify-writes of the whole table; if the read happened outside the
// table's write lock, a writer would publish a table that lacks a
// concurrent writer's change. Run with and without an index on ID, so both
// the index-probe and the full-scan candidate paths are covered.
func TestConcurrentWritesAreNotLost(t *testing.T) {
	const (
		sessions = 4
		perConn  = 40
		filler   = 500
	)
	for _, indexed := range []bool{true, false} {
		t.Run(fmt.Sprintf("indexed=%v", indexed), func(t *testing.T) {
			p := MustNew()
			mustExec(t, p, "CREATE TABLE W (ID LONG, Owner LONG, V LONG)")
			var vals []string
			for i := 0; i < filler; i++ {
				vals = append(vals, fmt.Sprintf("(%d, -1, 0)", -1-i))
			}
			mustExec(t, p, "INSERT INTO W VALUES "+joinStrs(vals))
			if indexed {
				tbl, err := p.Engine.DB.Table("W")
				if err != nil {
					t.Fatal(err)
				}
				if err := tbl.CreateIndex("ID"); err != nil {
					t.Fatal(err)
				}
			}

			ctx := context.Background()
			want := make([]map[int64]int64, sessions) // per owner: id → last V
			errs := make(chan error, sessions)
			var wg sync.WaitGroup
			for o := 0; o < sessions; o++ {
				want[o] = make(map[int64]int64)
				wg.Add(1)
				go func(o int) {
					defer wg.Done()
					s := p.NewSession()
					defer s.Close() //nolint:errcheck
					for k := 0; k < perConn; k++ {
						id := int64(o*1000 + k)
						stmts := []string{
							fmt.Sprintf("INSERT INTO W VALUES (%d, %d, 0)", id, o),
							fmt.Sprintf("UPDATE W SET V = %d WHERE ID = %d", k+1, id),
						}
						if k%3 == 0 {
							stmts = append(stmts, fmt.Sprintf("DELETE FROM W WHERE ID = %d AND Owner = %d", id, o))
						}
						for _, q := range stmts {
							if _, err := s.Execute(ctx, q); err != nil {
								errs <- fmt.Errorf("%s: %w", q, err)
								return
							}
						}
						if k%3 != 0 {
							want[o][id] = int64(k + 1)
						}
					}
				}(o)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			for o := 0; o < sessions; o++ {
				rs := mustExec(t, p, fmt.Sprintf("SELECT ID, V FROM W WHERE Owner = %d", o))
				got := make(map[int64]int64, rs.Len())
				for _, r := range rs.Rows() {
					got[r[0].(int64)] = r[1].(int64)
				}
				for id, v := range want[o] {
					if g, ok := got[id]; !ok {
						t.Errorf("owner %d: row %d lost", o, id)
					} else if g != v {
						t.Errorf("owner %d: row %d has V = %d, want %d", o, id, g, v)
					}
				}
				if len(got) != len(want[o]) {
					t.Errorf("owner %d: %d rows read back, want %d", o, len(got), len(want[o]))
				}
			}
			if n := mustExec(t, p, "SELECT ID FROM W WHERE Owner = -1").Len(); n != filler {
				t.Errorf("%d filler rows, want %d", n, filler)
			}
		})
	}
}
