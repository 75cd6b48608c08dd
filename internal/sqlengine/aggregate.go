package sqlengine

import (
	"fmt"
	"math"

	"repro/internal/rowset"
)

// aggregate executes a SELECT with GROUP BY and/or aggregate functions.
// Mergeable aggregates (COUNT/SUM/AVG/MIN/MAX without DISTINCT) stream: one
// pass folds each row into per-group partial states and no input row is
// retained beyond each group's representative. Two-pass (STDEV/VAR) and
// DISTINCT aggregates fall back to the materializing path, where the group
// map holds every input row until the stream ends and computeAggregate
// re-scans the group per call site. src is drained and closed.
func (e *Engine) aggregate(sel *SelectStmt, src rowset.BatchCursor) (*rowset.Rowset, error) {
	aggs, err := statementAggs(sel)
	if err != nil {
		src.Close() //nolint:errcheck // already failing
		return nil, err
	}
	srcSchema := src.Schema()
	if aggsMergeable(aggs) {
		acc := newAggAccum(sel, aggs, srcSchema)
		if err := e.drainInto(src, acc.observe); err != nil {
			return nil, err
		}
		return finishAggregate(sel, srcSchema, acc.finish(sel, srcSchema))
	}

	type group struct {
		first rowset.Row
		rows  []rowset.Row
	}
	env := &Env{Schema: srcSchema}
	groups := make(map[string]*group)
	var keyOrder []string
	var keyBuf []byte
	accum := func(r rowset.Row) error {
		env.Row = r
		keyBuf = keyBuf[:0]
		for _, g := range sel.GroupBy {
			v, err := Eval(g, env)
			if err != nil {
				return err
			}
			keyBuf = rowset.AppendKey(keyBuf, v)
			keyBuf = append(keyBuf, '|')
		}
		grp, ok := groups[string(keyBuf)]
		if !ok {
			grp = &group{first: r}
			k := string(keyBuf)
			groups[k] = grp
			keyOrder = append(keyOrder, k)
		}
		grp.rows = append(grp.rows, r)
		return nil
	}
	if err := e.drainInto(src, accum); err != nil {
		return nil, err
	}
	// Aggregation without GROUP BY over empty input still yields one group.
	if len(sel.GroupBy) == 0 && len(groups) == 0 {
		nulls := make(rowset.Row, srcSchema.Len())
		groups[""] = &group{first: nulls}
		keyOrder = append(keyOrder, "")
	}

	finished := make([]finishedGroup, 0, len(keyOrder))
	for _, k := range keyOrder {
		grp := groups[k]
		vals := make(map[*FuncCall]rowset.Value, len(aggs))
		for _, f := range aggs {
			v, err := computeAggregate(f, grp.rows, srcSchema)
			if err != nil {
				return nil, err
			}
			vals[f] = v
		}
		finished = append(finished, finishedGroup{first: grp.first, vals: vals})
	}
	return finishAggregate(sel, srcSchema, finished)
}

// drainInto drains src, feeding every live row to fn, and closes it.
func (e *Engine) drainInto(src rowset.BatchCursor, fn func(r rowset.Row) error) error {
	batches, err := drain(src, func(b rowset.Batch) error {
		for i, n := 0, b.Len(); i < n; i++ {
			if err := fn(b.Row(i)); err != nil {
				return err
			}
		}
		return nil
	})
	e.batches.Add(batches)
	return err
}

// statementAggs collects every aggregate call site in the statement (items,
// HAVING, ORDER BY). Duplicate textual calls stay distinct pointers, so each
// site gets its own computed value.
func statementAggs(sel *SelectStmt) ([]*FuncCall, error) {
	var aggs []*FuncCall
	for _, it := range sel.Items {
		if it.Star {
			return nil, fmt.Errorf("sqlengine: SELECT * cannot be combined with aggregation")
		}
		collectAggs(it.Expr, &aggs)
	}
	if sel.Having != nil {
		collectAggs(sel.Having, &aggs)
	}
	for _, o := range sel.OrderBy {
		collectAggs(o.Expr, &aggs)
	}
	return aggs, nil
}

// finishedGroup is one group ready for the aggregation tail: its first input
// row (the representative non-aggregate expressions evaluate against) and the
// computed value of every aggregate call site. Both the sequential and the
// morsel-parallel paths produce these, so HAVING, projection, ORDER BY, and
// schema inference run through exactly one implementation.
type finishedGroup struct {
	first rowset.Row
	vals  map[*FuncCall]rowset.Value
}

// finishAggregate applies HAVING, evaluates the projection with aggregates
// substituted, sorts by ORDER BY, and materializes the result. Groups must
// arrive in first-seen input order.
func finishAggregate(sel *SelectStmt, srcSchema *rowset.Schema, groups []finishedGroup) (*rowset.Rowset, error) {
	names := outputNames(sel.Items)
	var outRows []rowset.Row
	var keyRows []rowset.Row
	for _, grp := range groups {
		genv := &Env{Schema: srcSchema, Row: grp.first}
		if sel.Having != nil {
			hv, err := Eval(substituteAggs(sel.Having, grp.vals), genv)
			if err != nil {
				return nil, err
			}
			ok, err := Truthy(hv)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		out := make(rowset.Row, len(sel.Items))
		for i, it := range sel.Items {
			v, err := Eval(substituteAggs(it.Expr, grp.vals), genv)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		subOrder := make([]OrderItem, len(sel.OrderBy))
		for i, o := range sel.OrderBy {
			subOrder[i] = OrderItem{Expr: substituteAggs(o.Expr, grp.vals), Desc: o.Desc}
		}
		keys, err := orderKeys(subOrder, sel.Items, names, out, genv)
		if err != nil {
			return nil, err
		}
		outRows = append(outRows, out)
		keyRows = append(keyRows, keys)
	}
	if len(sel.OrderBy) > 0 {
		rowset.SortByKeys(outRows, keyRows, descFlags(sel.OrderBy))
	}

	schema, err := outputSchema(sel.Items, names, srcSchema, outRows)
	if err != nil {
		return nil, err
	}
	return rowset.FromRows(schema, outRows)
}

func collectAggs(e Expr, out *[]*FuncCall) {
	switch x := e.(type) {
	case *FuncCall:
		if aggregateFuncs[x.Name] {
			*out = append(*out, x)
			return // aggregates cannot nest
		}
		for _, a := range x.Args {
			collectAggs(a, out)
		}
	case *Binary:
		collectAggs(x.L, out)
		collectAggs(x.R, out)
	case *Unary:
		collectAggs(x.X, out)
	case *IsNull:
		collectAggs(x.X, out)
	case *Between:
		collectAggs(x.X, out)
		collectAggs(x.Lo, out)
		collectAggs(x.Hi, out)
	case *In:
		collectAggs(x.X, out)
		for _, i := range x.List {
			collectAggs(i, out)
		}
	}
}

// substituteAggs returns a copy of e with aggregate calls replaced by their
// computed values. Non-aggregate subtrees are shared, not copied.
func substituteAggs(e Expr, vals map[*FuncCall]rowset.Value) Expr {
	switch x := e.(type) {
	case *FuncCall:
		if v, ok := vals[x]; ok {
			return &Literal{Val: v}
		}
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = substituteAggs(a, vals)
		}
		return &FuncCall{Name: x.Name, Args: args, Star: x.Star, Distinct: x.Distinct, Pos: x.Pos}
	case *Binary:
		return &Binary{Op: x.Op, L: substituteAggs(x.L, vals), R: substituteAggs(x.R, vals)}
	case *Unary:
		return &Unary{Op: x.Op, X: substituteAggs(x.X, vals)}
	case *IsNull:
		return &IsNull{X: substituteAggs(x.X, vals), Negate: x.Negate}
	case *Between:
		return &Between{
			X: substituteAggs(x.X, vals), Lo: substituteAggs(x.Lo, vals),
			Hi: substituteAggs(x.Hi, vals), Negate: x.Negate,
		}
	case *In:
		list := make([]Expr, len(x.List))
		for i, it := range x.List {
			list[i] = substituteAggs(it, vals)
		}
		return &In{X: substituteAggs(x.X, vals), List: list, Negate: x.Negate}
	}
	return e
}

func computeAggregate(f *FuncCall, rows []rowset.Row, schema *rowset.Schema) (rowset.Value, error) {
	if f.Name == "COUNT" && f.Star {
		return int64(len(rows)), nil
	}
	if len(f.Args) != 1 {
		return nil, fmt.Errorf("sqlengine: %s takes exactly one argument", f.Name)
	}
	env := &Env{Schema: schema}
	var vals []rowset.Value
	seen := make(map[string]bool)
	for _, r := range rows {
		env.Row = r
		v, err := Eval(f.Args[0], env)
		if err != nil {
			return nil, err
		}
		if v == nil {
			continue
		}
		if f.Distinct {
			k := rowset.Key(v)
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	switch f.Name {
	case "COUNT":
		return int64(len(vals)), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return nil, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := rowset.Compare(v, best)
			if (f.Name == "MIN" && c < 0) || (f.Name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	case "SUM", "AVG", "STDEV", "VAR":
		if len(vals) == 0 {
			return nil, nil
		}
		allInt := true
		var sum float64
		var isum int64
		for _, v := range vals {
			fv, ok := rowset.ToFloat(v)
			if !ok {
				return nil, fmt.Errorf("sqlengine: %s requires numeric values, got %s", f.Name, rowset.TypeOf(v))
			}
			sum += fv
			if iv, ok := v.(int64); ok {
				isum += iv
			} else {
				allInt = false
			}
		}
		switch f.Name {
		case "SUM":
			if allInt {
				return isum, nil
			}
			return sum, nil
		case "AVG":
			return sum / float64(len(vals)), nil
		default: // STDEV, VAR: sample statistics
			if len(vals) < 2 {
				return nil, nil
			}
			mean := sum / float64(len(vals))
			var ss float64
			for _, v := range vals {
				fv, _ := rowset.ToFloat(v)
				d := fv - mean
				ss += d * d
			}
			variance := ss / float64(len(vals)-1)
			if f.Name == "VAR" {
				return variance, nil
			}
			return math.Sqrt(variance), nil
		}
	}
	return nil, fmt.Errorf("sqlengine: unknown aggregate %s", f.Name)
}
