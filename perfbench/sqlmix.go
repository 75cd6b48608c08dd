package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/rowset"
	"repro/internal/sqlengine"
	"repro/internal/storage"
)

var sqlAnalytics = &workloadDef{
	name:      "sql-analytics",
	why:       "plain SQL over 200k customers (~620k sales): filter, GROUP BY, ORDER BY, hash join; loads sqlengine batch/morsel and storage scans, bypasses algo, shape and wire",
	customers: 200000,
	loop:      sqlLoop,
	details: func(t *tally) []detail {
		return []detail{{name: "sql_rows_per_s", unit: "rows/s", ok: t.rows > 0,
			val: t.rowRate()}}
	},
	obsOverhead: sqlObsOverhead,
}

// sqlQuery is one generated analytic query and the check of its result.
type sqlQuery struct {
	kind   string // filter, groupby, orderby, join
	text   string
	tables []string
	check  func(rs *rowset.Rowset, w *warehouseSnap) error
}

// warehouseSnap holds the rows the checks recompute results from, plus two
// derived views built once so a check costs one pass: customers sorted by
// (Age desc, id) and each sale's buyer age.
type warehouseSnap struct {
	customers, sales []rowset.Row
	byAgeDesc        []rowset.Row
	saleAge          []float64
}

func snapWarehouse(r *rig) (*warehouseSnap, error) {
	c, err := r.p.DB.Table("Customers")
	if err != nil {
		return nil, err
	}
	s, err := r.p.DB.Table("Sales")
	if err != nil {
		return nil, err
	}
	w := &warehouseSnap{customers: c.Snapshot(), sales: s.Snapshot()}
	w.byAgeDesc = append([]rowset.Row(nil), w.customers...)
	sort.Slice(w.byAgeDesc, func(i, j int) bool {
		ai, aj := num(w.byAgeDesc[i][cAge]), num(w.byAgeDesc[j][cAge])
		if ai != aj {
			return ai > aj
		}
		return num(w.byAgeDesc[i][cID]) < num(w.byAgeDesc[j][cID])
	})
	ageOf := make(map[int64]float64, len(w.customers))
	for _, c := range w.customers {
		ageOf[c[cID].(int64)] = num(c[cAge])
	}
	w.saleAge = make([]float64, len(w.sales))
	for i, sale := range w.sales {
		age, ok := ageOf[sale[sCust].(int64)]
		if !ok {
			age = math.NaN() // no such customer: the join drops the sale
		}
		w.saleAge[i] = age
	}
	return w, nil
}

func (w *warehouseSnap) rowsOf(table string) int64 {
	if table == "Sales" {
		return int64(len(w.sales))
	}
	return int64(len(w.customers))
}

// Column ordinals of the generated tables.
const (
	cID, cGender, cHair, cAge, cAgeProb = 0, 1, 2, 3, 4
	sCust, sQty, sType                  = 0, 2, 3
)

var (
	genders = []string{"Male", "Female"}
	hairs   = []string{"Black", "Brown", "Blond", "Red"}
)

// sqlQueries draws one iteration's four queries from rng. The age cuts,
// which set how many rows the ORDER BY sorts and the join keeps, come from
// narrow ranges in the sparse band between the generator's student (22) and
// family (38) ages, so every iteration does about the same work and a run's
// throughput does not depend on the cuts its seed drew.
func sqlQueries(rng *rand.Rand) []sqlQuery {
	lo := 28 + rng.Intn(4)
	hi := lo + 15 + rng.Intn(5)
	g, h := genders[rng.Intn(2)], hairs[rng.Intn(4)]
	p1 := fmt.Sprintf("0.%04d", 9000+rng.Intn(800))
	p2 := fmt.Sprintf("0.%04d", 9000+rng.Intn(800))
	older := 29 + rng.Intn(4)
	joinAge := 28 + rng.Intn(4)
	return []sqlQuery{
		{
			kind: "filter", tables: []string{"Customers"},
			text: fmt.Sprintf(`SELECT [Customer ID], Age FROM Customers WHERE Age >= %d AND Age < %d AND Gender = '%s' AND [Hair Color] <> '%s' AND [Age Prob] > %s`,
				lo, hi, g, h, p1),
			check: func(rs *rowset.Rowset, w *warehouseSnap) error {
				p := mustFloat(p1)
				return sameIDSets(rs, w.customers, func(c rowset.Row) bool {
					age := num(c[cAge])
					return age >= float64(lo) && age < float64(hi) && c[cGender] == g && c[cHair] != h && num(c[cAgeProb]) > p
				})
			},
		},
		{
			kind: "groupby", tables: []string{"Customers"},
			text: fmt.Sprintf(`SELECT Gender, [Hair Color], COUNT(*) AS n, AVG(Age) AS mean_age, MIN(Age) AS min_age, MAX(Age) AS max_age FROM Customers WHERE [Age Prob] > %s GROUP BY Gender, [Hair Color]`, p2),
			check: func(rs *rowset.Rowset, w *warehouseSnap) error {
				p := mustFloat(p2)
				type agg struct{ n, sum, min, max float64 }
				want := map[string]*agg{}
				for _, c := range w.customers {
					if num(c[cAgeProb]) <= p {
						continue
					}
					k := c[cGender].(string) + "|" + c[cHair].(string)
					a, age := want[k], num(c[cAge])
					if a == nil {
						a = &agg{min: age, max: age}
						want[k] = a
					}
					a.n++
					a.sum += age
					a.min = math.Min(a.min, age)
					a.max = math.Max(a.max, age)
				}
				if rs.Len() != len(want) {
					return fmt.Errorf("%d groups, want %d", rs.Len(), len(want))
				}
				for _, row := range rs.Rows() {
					k := fmt.Sprint(row[0]) + "|" + fmt.Sprint(row[1])
					a := want[k]
					if a == nil {
						return fmt.Errorf("unexpected group %s", k)
					}
					if num(row[2]) != a.n || !near(num(row[3]), a.sum/a.n) || num(row[4]) != a.min || num(row[5]) != a.max {
						return fmt.Errorf("group %s = %v, want n=%v avg=%v min=%v max=%v", k, row[2:], a.n, a.sum/a.n, a.min, a.max)
					}
				}
				return nil
			},
		},
		{
			kind: "orderby", tables: []string{"Customers"},
			text: fmt.Sprintf(`SELECT [Customer ID], Age FROM Customers WHERE Age > %d ORDER BY Age DESC, [Customer ID]`, older),
			check: func(rs *rowset.Rowset, w *warehouseSnap) error {
				// Customers older than the cut are a prefix of byAgeDesc.
				want := sort.Search(len(w.byAgeDesc), func(i int) bool { return num(w.byAgeDesc[i][cAge]) <= float64(older) })
				if rs.Len() != want {
					return fmt.Errorf("%d rows, want %d", rs.Len(), want)
				}
				for i, row := range rs.Rows() {
					if num(row[0]) != num(w.byAgeDesc[i][cID]) {
						return fmt.Errorf("row %d is customer %v, want %v", i, row[0], w.byAgeDesc[i][cID])
					}
				}
				return nil
			},
		},
		{
			kind: "join", tables: []string{"Customers", "Sales"},
			text: fmt.Sprintf(`SELECT [Product Type], COUNT(*) AS n, SUM(Quantity) AS qty FROM Customers JOIN Sales ON Customers.[Customer ID] = Sales.CustID WHERE Age >= %d GROUP BY [Product Type]`, joinAge),
			check: func(rs *rowset.Rowset, w *warehouseSnap) error {
				type agg struct{ n, qty float64 }
				want := map[string]*agg{}
				for i, s := range w.sales {
					if !(w.saleAge[i] >= float64(joinAge)) {
						continue
					}
					k := s[sType].(string)
					if want[k] == nil {
						want[k] = &agg{}
					}
					want[k].n++
					want[k].qty += num(s[sQty])
				}
				if rs.Len() != len(want) {
					return fmt.Errorf("%d product types, want %d", rs.Len(), len(want))
				}
				for _, row := range rs.Rows() {
					a := want[fmt.Sprint(row[0])]
					if a == nil || num(row[1]) != a.n || !near(num(row[2]), a.qty) {
						return fmt.Errorf("product type %v = %v, want %+v", row[0], row[1:], a)
					}
				}
				return nil
			},
		},
	}
}

// sameIDSets checks that rs holds exactly the customers that match keep, as
// ([Customer ID], Age) rows.
func sameIDSets(rs *rowset.Rowset, customers []rowset.Row, keep func(rowset.Row) bool) error {
	want := map[int64]float64{}
	for _, c := range customers {
		if keep(c) {
			want[c[cID].(int64)] = num(c[cAge])
		}
	}
	if rs.Len() != len(want) {
		return fmt.Errorf("%d rows, want %d", rs.Len(), len(want))
	}
	for _, row := range rs.Rows() {
		id, _ := row[0].(int64)
		age, ok := want[id]
		if !ok || age != num(row[1]) {
			return fmt.Errorf("unexpected or repeated row %v", row)
		}
		delete(want, id)
	}
	return nil
}

func num(v rowset.Value) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	}
	return math.NaN()
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func mustFloat(s string) float64 {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		panic(err) // the literal was formatted by sqlQueries
	}
	return f
}

// sqlLoop runs iterations of the four-query mix on one session.
func sqlLoop(ctx context.Context, r *rig, lc loopCtl) (*tally, error) {
	w, err := snapWarehouse(r)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.seed))
	parallel := r.p.Obs().Counter(obs.MetricSQLParallelScansTotal)
	t := newTally()
	for i := 0; lc.more(i, t.active); i++ {
		at := t.mark()
		for _, q := range sqlQueries(rng) {
			var in int64
			for _, tb := range q.tables {
				in += w.rowsOf(tb)
			}
			scans0 := parallel.Value()
			t0 := time.Now()
			rs, err := r.sess.Execute(ctx, q.text)
			d := time.Since(t0)
			t.active += d
			t.units["parallel_scans"] += parallel.Value() - scans0
			if err != nil {
				t.ops++
				t.fail("%s: %v", q.kind, err)
				continue
			}
			t.op("sql", d, in)
			if err := q.check(rs, w); err != nil {
				t.fail("%s: %v\nstatement: %s", q.kind, err, q.text)
			}
			if lc.tr != nil {
				op := lc.tr.add(0, "op:sql."+q.kind, t0, t0.Add(d), in, false)
				rs0 := time.Now()
				if err := replaySQL(ctx, r, lc.tr, op, q, w); err != nil {
					return nil, err
				}
				t.replay += time.Since(rs0)
			}
		}
		t.closeWindow(at)
	}
	return t, nil
}

// replaySQL runs the query on a fresh engine and scans the tables it reads;
// for the morsel-eligible queries it also runs a single-worker engine, as a
// follow-up, for the morsel speed-up.
func replaySQL(ctx context.Context, r *rig, tr *tracer, op int, q sqlQuery, w *warehouseSnap) error {
	var in int64
	for _, tb := range q.tables {
		in += w.rowsOf(tb)
	}
	eid, err := tr.call(op, "sqlengine.exec."+q.kind, func() (int64, int64, error) {
		_, err := sqlengine.NewEngine(r.p.DB).ExecContext(ctx, q.text)
		return in, 0, err
	})
	if err != nil {
		return err
	}
	if _, err := tr.call(eid, "storage.scan", func() (int64, int64, error) { return scanTables(r, q.tables) }); err != nil {
		return err
	}
	if q.kind == "filter" || q.kind == "groupby" {
		_, err = tr.follow(op, "sqlengine.exec1."+q.kind, func() (int64, int64, error) {
			eng := sqlengine.NewEngine(r.p.DB)
			eng.Vec.Workers = 1
			_, err := eng.ExecContext(ctx, q.text)
			return in, 0, err
		})
	}
	return err
}

// scanTables reads every row of the named tables through Table.Cursor.
func scanTables(r *rig, tables []string) (int64, int64, error) {
	var rows int64
	for _, name := range tables {
		tbl, err := r.p.DB.Table(name)
		if err != nil {
			return 0, 0, err
		}
		n, err := drain(tbl)
		if err != nil {
			return 0, 0, err
		}
		rows += n
	}
	return rows, 0, nil
}

func drain(tbl *storage.Table) (int64, error) {
	cur := tbl.Cursor()
	var n int64
	for {
		row, err := cur.Next()
		if err != nil {
			return 0, err
		}
		if row == nil {
			return n, nil
		}
		n++
	}
}

// sqlObsOverhead runs the single-table queries with and without an
// observability registry.
func sqlObsOverhead(ctx context.Context, customers int, seed int64) (float64, error) {
	qs := sqlQueries(rand.New(rand.NewSource(seed)))[:3]
	return twins(ctx, customers, seed, 3, func(*rig) error { return nil }, func(x *rig) error {
		for _, q := range qs {
			if err := x.exec(ctx, q.text); err != nil {
				return err
			}
		}
		return nil
	})
}
