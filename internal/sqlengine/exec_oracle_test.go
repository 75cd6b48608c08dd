package sqlengine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/rowset"
	"repro/internal/storage"
)

// This file is the streaming-vs-materialized differential harness: a
// test-only copy of the executor as it existed before the Volcano rewrite —
// every operator builds a complete Rowset, scans never consult indexes — used
// as the oracle for the streaming cursor pipeline. Aggregation is shared with
// the engine (it was the same function before the rewrite and is the
// materializing operator either way); everything the rewrite replaced — scan,
// join, filter, project, sort, distinct, TOP — is duplicated here verbatim.

func oracleQuery(e *Engine, sel *SelectStmt) (*rowset.Rowset, error) {
	src, err := oracleSource(e, sel.From)
	if err != nil {
		return nil, err
	}
	if sel.Where != nil {
		src, err = oracleFilter(src, sel.Where)
		if err != nil {
			return nil, err
		}
	}
	var out *rowset.Rowset
	if needsAggregate(sel) {
		out, err = e.aggregate(sel, rowset.BatchCursorOf(src.Cursor()))
	} else {
		out, err = oracleProject(sel, src)
	}
	if err != nil {
		return nil, err
	}
	if sel.Distinct {
		out = oracleDistinct(out)
	}
	if sel.Top > 0 && out.Len() > sel.Top {
		trimmed := rowset.New(out.Schema())
		for i := 0; i < sel.Top; i++ {
			if err := trimmed.Append(out.Row(i)); err != nil {
				return nil, err
			}
		}
		out = trimmed
	}
	return out, nil
}

func oracleSource(e *Engine, from []TableRef) (*rowset.Rowset, error) {
	if len(from) == 0 {
		rs := rowset.New(rowset.MustSchema())
		if err := rs.AppendVals(); err != nil {
			return nil, err
		}
		return rs, nil
	}
	acc, err := oracleScan(e, from[0])
	if err != nil {
		return nil, err
	}
	for _, ref := range from[1:] {
		right, err := oracleScan(e, ref)
		if err != nil {
			return nil, err
		}
		acc, err = oracleJoin(acc, right, ref.Kind, ref.On)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

func oracleScan(e *Engine, ref TableRef) (*rowset.Rowset, error) {
	var scan *rowset.Rowset
	if view, ok := e.views.get(ref.Name); ok {
		vr, err := e.Query(view)
		if err != nil {
			return nil, fmt.Errorf("sqlengine: view %s: %w", ref.Name, err)
		}
		scan = vr
	} else {
		tbl, err := e.DB.Table(ref.Name)
		if err != nil {
			return nil, err
		}
		scan = tbl.Scan()
	}
	q := ref.AliasOrName()
	cols := make([]rowset.Column, scan.Schema().Len())
	for i, c := range scan.Schema().Columns {
		cols[i] = rowset.Column{Name: q + "." + c.Name, Type: c.Type, Nested: c.Nested}
	}
	schema, err := rowset.NewSchema(cols...)
	if err != nil {
		return nil, fmt.Errorf("sqlengine: %w (duplicate alias %q?)", err, q)
	}
	return rowset.FromRows(schema, scan.Rows())
}

// oracleJoin always builds the hash table on the right input, as the
// materialized executor did.
func oracleJoin(left, right *rowset.Rowset, kind JoinKind, on Expr) (*rowset.Rowset, error) {
	schema, err := concatSchemas(left.Schema(), right.Schema())
	if err != nil {
		return nil, err
	}
	out := rowset.New(schema)
	appendJoined := func(l, r rowset.Row) error {
		row := make(rowset.Row, 0, len(l)+len(r))
		row = append(row, l...)
		row = append(row, r...)
		return out.Append(row)
	}
	nullRight := make(rowset.Row, right.Schema().Len())

	if kind == JoinCross {
		for _, l := range left.Rows() {
			for _, r := range right.Rows() {
				if err := appendJoined(l, r); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}

	if lo, ro, ok := equiJoinOrdinals(on, left.Schema(), right.Schema()); ok {
		ht := make(map[string][]rowset.Row, right.Len())
		for _, r := range right.Rows() {
			if r[ro] == nil {
				continue // NULL never matches in an equi-join
			}
			ht[rowset.Key(r[ro])] = append(ht[rowset.Key(r[ro])], r)
		}
		for _, l := range left.Rows() {
			var matches []rowset.Row
			if l[lo] != nil {
				matches = ht[rowset.Key(l[lo])]
			}
			if len(matches) == 0 {
				if kind == JoinLeft {
					if err := appendJoined(l, nullRight); err != nil {
						return nil, err
					}
				}
				continue
			}
			for _, r := range matches {
				if err := appendJoined(l, r); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}

	env := &Env{Schema: schema}
	probe := make(rowset.Row, 0, schema.Len())
	for _, l := range left.Rows() {
		matched := false
		for _, r := range right.Rows() {
			probe = probe[:0]
			probe = append(probe, l...)
			probe = append(probe, r...)
			env.Row = probe
			v, err := Eval(on, env)
			if err != nil {
				return nil, err
			}
			ok, err := Truthy(v)
			if err != nil {
				return nil, err
			}
			if ok {
				matched = true
				if err := appendJoined(l, r); err != nil {
					return nil, err
				}
			}
		}
		if !matched && kind == JoinLeft {
			if err := appendJoined(l, nullRight); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func oracleFilter(src *rowset.Rowset, cond Expr) (*rowset.Rowset, error) {
	out := rowset.New(src.Schema())
	env := &Env{Schema: src.Schema()}
	for _, r := range src.Rows() {
		env.Row = r
		v, err := Eval(cond, env)
		if err != nil {
			return nil, err
		}
		ok, err := Truthy(v)
		if err != nil {
			return nil, err
		}
		if ok {
			if err := out.Append(r); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func oracleProject(sel *SelectStmt, src *rowset.Rowset) (*rowset.Rowset, error) {
	items, err := expandStars(sel.Items, src.Schema())
	if err != nil {
		return nil, err
	}
	names := outputNames(items)
	env := &Env{Schema: src.Schema()}
	outRows := make([]rowset.Row, 0, src.Len())
	keyRows := make([]rowset.Row, 0, src.Len())
	for _, r := range src.Rows() {
		env.Row = r
		out := make(rowset.Row, len(items))
		for i, it := range items {
			v, err := Eval(it.Expr, env)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		keys, err := orderKeys(sel.OrderBy, items, names, out, env)
		if err != nil {
			return nil, err
		}
		outRows = append(outRows, out)
		keyRows = append(keyRows, keys)
	}
	oracleSort(outRows, keyRows, sel.OrderBy)
	schema, err := outputSchema(items, names, src.Schema(), outRows)
	if err != nil {
		return nil, err
	}
	return rowset.FromRows(schema, outRows)
}

func oracleSort(rows []rowset.Row, keys []rowset.Row, order []OrderItem) {
	if len(order) == 0 {
		return
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		a, b := idx[x], idx[y]
		for k, o := range order {
			c := rowset.Compare(keys[a][k], keys[b][k])
			if o.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	tmp := make([]rowset.Row, len(rows))
	for i, j := range idx {
		tmp[i] = rows[j]
	}
	copy(rows, tmp)
}

func oracleDistinct(rs *rowset.Rowset) *rowset.Rowset {
	out := rowset.New(rs.Schema())
	seen := make(map[string]bool, rs.Len())
	for _, r := range rs.Rows() {
		var b strings.Builder
		for _, v := range r {
			b.WriteString(rowset.Key(v))
			b.WriteByte('|')
		}
		k := b.String()
		if !seen[k] {
			seen[k] = true
			_ = out.Append(r) //nolint:errcheck // rows came from a valid rowset
		}
	}
	return out
}

// differentialDB stages tables (two of them indexed), NULLs, and a view so
// the fixtures exercise index pushdown, its refusal cases, and the view path.
func differentialDB(t *testing.T) *Engine {
	t.Helper()
	db := storage.NewDatabase()
	e := NewEngine(db)
	mustOK := func(sql string) {
		t.Helper()
		if _, err := e.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustOK("CREATE TABLE C (id LONG, name TEXT, city TEXT, age LONG, score DOUBLE)")
	mustOK("CREATE TABLE O (oid LONG, cid LONG, amount DOUBLE, item TEXT)")
	cities := []string{"rome", "oslo", "lima", "kiev"}
	items := []string{"pen", "mug", "hat"}
	ct, _ := db.Table("C")
	ot, _ := db.Table("O")
	for i := 0; i < 70; i++ {
		var score rowset.Value = float64(i%13) * 1.5
		if i%9 == 0 {
			score = nil
		}
		var city rowset.Value = cities[i%len(cities)]
		if i%17 == 0 {
			city = nil
		}
		r := rowset.Row{int64(i), fmt.Sprintf("n%02d", i%25), city, int64(18 + i%50), score}
		if err := ct.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 90; i++ {
		var cid rowset.Value = int64(i % 80) // some cids match no customer
		if i%11 == 0 {
			cid = nil
		}
		r := rowset.Row{int64(1000 + i), cid, float64(i) / 3, items[i%len(items)]}
		if err := ot.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := ct.CreateIndex("city"); err != nil {
		t.Fatal(err)
	}
	if err := ot.CreateIndex("cid"); err != nil {
		t.Fatal(err)
	}
	mustOK("CREATE VIEW V AS SELECT id, city, age FROM C WHERE age > 30")
	return e
}

// differentialFixtures is the query corpus: every operator the streaming
// rewrite touched, with and without index pushdown, plus the pushdown
// refusal shapes (OR, LEFT JOIN right side, views, ambiguity via self-join).
var differentialFixtures = []string{
	"SELECT * FROM C",
	"SELECT name, age FROM C",
	"SELECT id, age * 2 AS double_age, score + 1 FROM C",
	"SELECT name FROM C WHERE city = 'rome'",
	"SELECT 'rome' AS k, name FROM C WHERE 'rome' = city",
	"SELECT name, age FROM C WHERE city = 'rome' AND age > 30",
	"SELECT name FROM C WHERE city = 'rome' AND age = 40",
	"SELECT name FROM C WHERE city = 'rome' OR age > 60",
	"SELECT name FROM C WHERE age = 40",
	"SELECT name FROM C WHERE city = 'atlantis'",
	"SELECT name FROM C WHERE city = 3",
	"SELECT id FROM C WHERE score IS NULL",
	"SELECT name, age FROM C ORDER BY age",
	"SELECT name, age FROM C ORDER BY age DESC, name",
	"SELECT age AS a FROM C ORDER BY a DESC",
	"SELECT city, score FROM C ORDER BY score",
	"SELECT DISTINCT city FROM C",
	"SELECT DISTINCT city, age FROM C WHERE city = 'lima'",
	"SELECT TOP 5 name FROM C ORDER BY age DESC",
	"SELECT TOP 7 name FROM C",
	"SELECT DISTINCT TOP 3 city FROM C",
	"SELECT C.name, O.item FROM C JOIN O ON C.id = O.cid",
	"SELECT C.name, O.item, O.amount FROM C JOIN O ON C.id = O.cid WHERE city = 'rome'",
	"SELECT C.name, O.item FROM C JOIN O ON C.id = O.cid WHERE O.cid = 3",
	"SELECT C.name, O.item FROM C LEFT JOIN O ON C.id = O.cid ORDER BY C.id, O.oid",
	"SELECT C.name, O.amount FROM C LEFT JOIN O ON C.id = O.cid WHERE O.cid = 3",
	"SELECT COUNT(*) FROM C, O",
	"SELECT TOP 10 C.id, O.oid FROM C, O ORDER BY O.oid, C.id",
	"SELECT a.name, b.name FROM C AS a JOIN C AS b ON a.id = b.id WHERE a.city = 'oslo'",
	"SELECT COUNT(*) FROM C JOIN O ON C.id < O.cid",
	"SELECT C.name, O.item, V.age FROM C JOIN O ON C.id = O.cid JOIN V ON C.id = V.id",
	"SELECT city, COUNT(*), AVG(age) FROM C GROUP BY city ORDER BY city",
	"SELECT city, SUM(score) FROM C GROUP BY city HAVING COUNT(*) > 10 ORDER BY city",
	"SELECT COUNT(*), MAX(score), MIN(age) FROM C",
	"SELECT COUNT(*) FROM C WHERE city = 'rome'",
	"SELECT * FROM V WHERE city = 'rome'",
	"SELECT id, city FROM V ORDER BY id",
	"SELECT 1 + 2 AS three, 'x' AS s",
}

// TestDifferentialStreamingVsMaterialized runs every fixture through the
// streaming cursor pipeline and through the pre-rewrite materialized oracle
// and requires byte-identical results: same column names, same declared
// types, same rows in the same order.
func TestDifferentialStreamingVsMaterialized(t *testing.T) {
	e := differentialDB(t)
	for _, q := range differentialFixtures {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: parse: %v", q, err)
		}
		sel, ok := stmt.(*SelectStmt)
		if !ok {
			t.Fatalf("%s: not a SELECT", q)
		}
		want, err := oracleQuery(e, sel)
		if err != nil {
			t.Fatalf("%s: oracle: %v", q, err)
		}
		got, err := e.Query(sel)
		if err != nil {
			t.Fatalf("%s: engine: %v", q, err)
		}
		diffRowsets(t, q, got, want)
	}
}

func diffRowsets(t *testing.T, q string, got, want *rowset.Rowset) {
	t.Helper()
	if gn, wn := got.Schema().Names(), want.Schema().Names(); fmt.Sprint(gn) != fmt.Sprint(wn) {
		t.Errorf("%s: columns %v, oracle %v", q, gn, wn)
		return
	}
	for i, wc := range want.Schema().Columns {
		if gc := got.Schema().Column(i); gc.Type != wc.Type {
			t.Errorf("%s: column %s type %v, oracle %v", q, wc.Name, gc.Type, wc.Type)
			return
		}
	}
	if got.Len() != want.Len() {
		t.Errorf("%s: %d rows, oracle %d", q, got.Len(), want.Len())
		return
	}
	for i := 0; i < want.Len(); i++ {
		gr, wr := got.Row(i), want.Row(i)
		for j := range wr {
			if rowset.Key(gr[j]) != rowset.Key(wr[j]) {
				t.Errorf("%s: row %d col %d = %v, oracle %v", q, i, j, gr[j], wr[j])
				return
			}
		}
	}
	if gs, ws := got.String(), want.String(); gs != ws {
		t.Errorf("%s: rendered rowset differs from oracle:\n--- engine ---\n%s--- oracle ---\n%s", q, gs, ws)
	}
}

// TestDifferentialErrorsAgree checks that queries the materialized executor
// rejected are still rejected by the streaming pipeline — pushdown and lazy
// column resolution must not mask ambiguity or unknown-column errors.
func TestDifferentialErrorsAgree(t *testing.T) {
	e := differentialDB(t)
	for _, q := range []string{
		"SELECT name FROM C AS a, C AS b WHERE city = 'rome'", // ambiguous everywhere
		"SELECT nope FROM C",
		"SELECT name FROM C WHERE nope = 'rome'",
		"SELECT name FROM C JOIN O ON C.id = O.cid WHERE id = 3 AND bogus = 1",
	} {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: parse: %v", q, err)
		}
		sel := stmt.(*SelectStmt)
		_, oErr := oracleQuery(e, sel)
		_, gErr := e.Query(sel)
		if oErr == nil || gErr == nil {
			t.Errorf("%s: oracle err=%v, engine err=%v (want both non-nil)", q, oErr, gErr)
			continue
		}
		if oErr.Error() != gErr.Error() {
			t.Errorf("%s: error mismatch\n  oracle: %v\n  engine: %v", q, oErr, gErr)
		}
	}
}
