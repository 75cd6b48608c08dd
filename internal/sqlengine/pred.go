package sqlengine

// Predicate compilation for the vectorized filter. A restricted WHERE grammar
// — comparisons between a column and a literal, IS [NOT] NULL, BETWEEN and IN
// over literals, and AND/OR/NOT combinations of those — compiles to a closure
// tree that evaluates three-valued logic directly over source rows: no Env,
// no per-row name resolution, and no error paths (the compiler only admits
// forms whose evaluation cannot fail: comparisons go through rowset.Compare,
// which is total, and the logical connectives only ever see BOOL or NULL
// operands). Anything outside the grammar falls back to Eval, so the two
// paths agree row-for-row; the three-way differential oracle enforces parity.

import "repro/internal/rowset"

// tv is a three-valued truth value.
type tv int8

const (
	tvFalse tv = iota
	tvTrue
	tvNull
)

// pred3 evaluates one predicate node over a row in three-valued logic.
type pred3 func(r rowset.Row) tv

// compilePred compiles cond against schema into a row predicate: a row
// passes iff the condition evaluates to exactly TRUE, matching Truthy.
// Conditions inside the compilable grammar run as a closure tree that cannot
// fail; anything else falls back to Eval, which may. The choice is made once,
// here, so the filter loop has a single shape. The returned closure owns an
// Env, so each goroutine must compile its own.
func compilePred(cond Expr, schema *rowset.Schema) func(r rowset.Row) (bool, error) {
	if p, ok := compile3(cond, schema); ok {
		return func(r rowset.Row) (bool, error) { return p(r) == tvTrue, nil }
	}
	env := &Env{Schema: schema}
	return func(r rowset.Row) (bool, error) {
		env.Row = r
		return evalCond(cond, env)
	}
}

func compile3(e Expr, schema *rowset.Schema) (pred3, bool) {
	switch x := e.(type) {
	case *Binary:
		switch x.Op {
		case OpAnd:
			l, ok1 := compile3(x.L, schema)
			r, ok2 := compile3(x.R, schema)
			if !ok1 || !ok2 {
				return nil, false
			}
			// AND is TRUE iff both are; FALSE dominates NULL. Short-circuit
			// order matches evalLogical (harmless here — compiled nodes
			// cannot error — but keeps the code shapes parallel).
			return func(row rowset.Row) tv {
				lv := l(row)
				if lv == tvFalse {
					return tvFalse
				}
				rv := r(row)
				if rv == tvFalse {
					return tvFalse
				}
				if lv == tvNull || rv == tvNull {
					return tvNull
				}
				return tvTrue
			}, true
		case OpOr:
			l, ok1 := compile3(x.L, schema)
			r, ok2 := compile3(x.R, schema)
			if !ok1 || !ok2 {
				return nil, false
			}
			return func(row rowset.Row) tv {
				lv := l(row)
				if lv == tvTrue {
					return tvTrue
				}
				rv := r(row)
				if rv == tvTrue {
					return tvTrue
				}
				if lv == tvNull || rv == tvNull {
					return tvNull
				}
				return tvFalse
			}, true
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			return compileCmp(x, schema)
		}
		return nil, false
	case *Unary:
		if x.Op != "NOT" {
			return nil, false
		}
		p, ok := compile3(x.X, schema)
		if !ok {
			return nil, false
		}
		return func(row rowset.Row) tv {
			switch p(row) {
			case tvTrue:
				return tvFalse
			case tvFalse:
				return tvTrue
			}
			return tvNull
		}, true
	case *IsNull:
		ord, ok := compileColumn(x.X, schema)
		if !ok {
			return nil, false
		}
		neg := x.Negate
		return func(row rowset.Row) tv {
			if (row[ord] == nil) != neg {
				return tvTrue
			}
			return tvFalse
		}, true
	case *Between:
		ord, ok := compileColumn(x.X, schema)
		if !ok {
			return nil, false
		}
		lo, ok1 := literalValue(x.Lo)
		hi, ok2 := literalValue(x.Hi)
		if !ok1 || !ok2 {
			return nil, false
		}
		if lo == nil || hi == nil {
			return constNull, true // any NULL operand makes BETWEEN NULL
		}
		neg := x.Negate
		return func(row rowset.Row) tv {
			v := row[ord]
			if v == nil {
				return tvNull
			}
			res := rowset.Compare(v, lo) >= 0 && rowset.Compare(v, hi) <= 0
			if res != neg {
				return tvTrue
			}
			return tvFalse
		}, true
	case *In:
		if x.Subquery != nil {
			return nil, false
		}
		ord, ok := compileColumn(x.X, schema)
		if !ok {
			return nil, false
		}
		vals := make([]rowset.Value, 0, len(x.List))
		sawNull := false
		for _, item := range x.List {
			v, ok := literalValue(item)
			if !ok {
				return nil, false
			}
			if v == nil {
				sawNull = true
				continue
			}
			vals = append(vals, v)
		}
		neg := x.Negate
		return func(row rowset.Row) tv {
			v := row[ord]
			if v == nil {
				return tvNull
			}
			for _, lv := range vals {
				if rowset.Compare(v, lv) == 0 {
					if neg {
						return tvFalse
					}
					return tvTrue
				}
			}
			if sawNull {
				return tvNull // no match, but NULL in the list: unknown
			}
			if neg {
				return tvTrue
			}
			return tvFalse
		}, true
	}
	return nil, false
}

func constNull(rowset.Row) tv { return tvNull }

// compileCmp compiles `column op literal` (either operand order; the operator
// flips when the literal is on the left).
func compileCmp(b *Binary, schema *rowset.Schema) (pred3, bool) {
	op := b.Op
	colExpr, litExpr := b.L, b.R
	if _, isLit := b.L.(*Literal); isLit {
		colExpr, litExpr = b.R, b.L
		switch op {
		case OpLt:
			op = OpGt
		case OpLe:
			op = OpGe
		case OpGt:
			op = OpLt
		case OpGe:
			op = OpLe
		}
	}
	ord, ok := compileColumn(colExpr, schema)
	if !ok {
		return nil, false
	}
	lit, ok := literalValue(litExpr)
	if !ok {
		return nil, false
	}
	if lit == nil {
		return constNull, true // comparison with NULL is always NULL
	}
	return func(row rowset.Row) tv {
		v := row[ord]
		if v == nil {
			return tvNull
		}
		c := rowset.Compare(v, lit)
		var res bool
		switch op {
		case OpEq:
			res = c == 0
		case OpNe:
			res = c != 0
		case OpLt:
			res = c < 0
		case OpLe:
			res = c <= 0
		case OpGt:
			res = c > 0
		default: // OpGe
			res = c >= 0
		}
		if res {
			return tvTrue
		}
		return tvFalse
	}, true
}

// compileColumn resolves a ColumnRef to its source ordinal. Unresolvable
// references do not compile (Eval must surface the resolution error).
func compileColumn(e Expr, schema *rowset.Schema) (int, bool) {
	cr, ok := e.(*ColumnRef)
	if !ok {
		return 0, false
	}
	ord, err := ResolveColumn(schema, cr.Qualifier, cr.Name)
	if err != nil {
		return 0, false
	}
	return ord, true
}

// literalValue extracts a literal operand, normalized the same way Eval's
// operand would arrive at a comparison.
func literalValue(e Expr) (rowset.Value, bool) {
	l, ok := e.(*Literal)
	if !ok {
		return nil, false
	}
	return rowset.Normalize(l.Val), true
}
