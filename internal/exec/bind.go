package exec

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/sql"
)

// boundExpr is a compiled expression produced by Bind: the per-row work
// left after name resolution and tree dispatch have been paid once per
// Open instead of once per row.
type boundExpr func(row *Row) (model.Value, error)

// boundPred is the boolean specialization produced by BindPred: filters
// only need SQL truth, and threading a bare bool through the conjunct
// closures avoids materializing (and copying) a value per
// sub-expression per row — the dominant cost of a bound multi-predicate
// filter.
type boundPred func(row *Row) (bool, error)

// Bind compiles an expression against the evaluator's schema; it is
// the engine's only expression evaluator. Column references resolve
// their ordinal once, literals become constants, $ references and the
// Section 3.1 manipulation functions resolve their method names and
// bind their arguments once (a missing summary object still propagates
// NULL through the rest of the chain), and scalar functions resolve
// their name and arity once. The closures hold no per-row mutable
// state, so one binding may be shared by concurrent workers.
//
// Binding never fails: an unresolvable column, an unknown method or
// function, a wrong argument count, or an aggregate outside GROUP BY
// yields a closure that returns the error, so the error surfaces only
// when a row reaches the expression.
func (ev *Evaluator) Bind(e sql.Expr) boundExpr {
	switch n := e.(type) {
	case *sql.Literal:
		v := n.Value
		return func(*Row) (model.Value, error) { return v, nil }

	case *sql.ColumnRef:
		i, err := ev.Schema.ColIndex(n.Qualifier, n.Name)
		if err != nil {
			return failExpr(err)
		}
		return func(row *Row) (model.Value, error) { return row.Tuple.Values[i], nil }

	case *sql.DollarRef, *sql.MethodCall:
		s := ev.bindSummary(e)
		return func(row *Row) (model.Value, error) {
			r, err := s(row)
			if err != nil {
				return model.Value{}, err
			}
			return resolveValue(e, r)
		}

	case *sql.FuncCall:
		return ev.bindFunc(n)

	case *sql.Not:
		inner := ev.BindPred(n.Expr)
		return func(row *Row) (model.Value, error) {
			b, err := inner(row)
			if err != nil {
				return model.Value{}, err
			}
			return model.NewBool(!b), nil
		}

	case *sql.Neg:
		inner := ev.Bind(n.Expr)
		return func(row *Row) (model.Value, error) {
			v, err := inner(row)
			if err != nil {
				return model.Value{}, err
			}
			return negValue(v)
		}

	case *sql.Binary:
		if n.Op == sql.OpAnd || n.Op == sql.OpOr {
			p := ev.BindPred(n)
			return func(row *Row) (model.Value, error) {
				b, err := p(row)
				if err != nil {
					return model.Value{}, err
				}
				return model.NewBool(b), nil
			}
		}
		lb, rb := ev.Bind(n.L), ev.Bind(n.R)
		op := n.Op
		return func(row *Row) (model.Value, error) {
			l, err := lb(row)
			if err != nil {
				return model.Value{}, err
			}
			r, err := rb(row)
			if err != nil {
				return model.Value{}, err
			}
			return applyBinary(op, l, r)
		}
	}
	return failExpr(fmt.Errorf("exec: unsupported expression %T", e))
}

// failExpr is the binding of an expression that cannot evaluate: every
// row that reaches it gets err.
func failExpr(err error) boundExpr {
	return func(*Row) (model.Value, error) { return model.Value{}, err }
}

// bindAll binds a list of expressions.
func (ev *Evaluator) bindAll(es []sql.Expr) []boundExpr {
	out := make([]boundExpr, len(es))
	for i, e := range es {
		out[i] = ev.Bind(e)
	}
	return out
}

// BindPred compiles an expression as a predicate: the closure chain
// passes SQL truth (NULL is false) directly instead of boxing every
// sub-result in a value. AND/OR short-circuit left to right, NOT takes
// the complement of its operand's truth, and comparisons between
// column references and literals lower to direct compares against the
// pre-resolved ordinal and constant. Everything else evaluates through
// Bind and takes Truth of the value, so the two share one semantics.
func (ev *Evaluator) BindPred(e sql.Expr) boundPred {
	switch n := e.(type) {
	case *sql.Not:
		inner := ev.BindPred(n.Expr)
		return func(row *Row) (bool, error) {
			b, err := inner(row)
			if err != nil {
				return false, err
			}
			return !b, nil
		}

	case *sql.Binary:
		switch n.Op {
		case sql.OpAnd:
			lp, rp := ev.BindPred(n.L), ev.BindPred(n.R)
			return func(row *Row) (bool, error) {
				ok, err := lp(row)
				if err != nil || !ok {
					return false, err
				}
				return rp(row)
			}
		case sql.OpOr:
			lp, rp := ev.BindPred(n.L), ev.BindPred(n.R)
			return func(row *Row) (bool, error) {
				ok, err := lp(row)
				if err != nil || ok {
					return ok, err
				}
				return rp(row)
			}
		default:
			if p := ev.bindComparePred(n); p != nil {
				return p
			}
		}
	}
	be := ev.Bind(e)
	return func(row *Row) (bool, error) {
		v, err := be(row)
		if err != nil {
			return false, err
		}
		return v.Truth(), nil
	}
}

// bindComparePred lowers a comparison whose operands are both column
// references or literals to a direct compare of the operands read in
// place: no value copies, and compareValues' inline int64 compare for
// the overwhelmingly common integer-column-vs-integer-constant
// conjunct. Returns nil when an operand is any other shape (caller
// falls back to the generic bound path).
func (ev *Evaluator) bindComparePred(n *sql.Binary) boundPred {
	l, r, ok := ev.bindOperands(n)
	if !ok {
		return nil
	}
	op := n.Op
	return func(row *Row) (bool, error) { return compareValues(op, l.value(row), r.value(row)) }
}

// operand is a simple comparison side resolved at bind time: column col
// of the row, or the constant lit when col < 0.
type operand struct {
	col int
	lit model.Value
}

// value returns the operand's value in place.
func (o *operand) value(row *Row) *model.Value {
	if o.col < 0 {
		return &o.lit
	}
	return &row.Tuple.Values[o.col]
}

// bindOperands resolves both sides of a comparison other than LIKE when
// each is a column reference or a literal, so the comparison reads
// values in place instead of copying them through closure returns. Any
// other shape (or an unresolvable column, which must keep its per-row
// error) reports false.
func (ev *Evaluator) bindOperands(n *sql.Binary) (l, r *operand, ok bool) {
	if !n.Op.IsComparison() || n.Op == sql.OpLike {
		return nil, nil, false
	}
	if l, ok = ev.bindOperand(n.L); ok {
		r, ok = ev.bindOperand(n.R)
	}
	return l, r, ok
}

// bindOperand resolves one side of a comparison for bindOperands.
func (ev *Evaluator) bindOperand(e sql.Expr) (*operand, bool) {
	switch n := e.(type) {
	case *sql.Literal:
		return &operand{col: -1, lit: n.Value}, true
	case *sql.ColumnRef:
		if i, err := ev.Schema.ColIndex(n.Qualifier, n.Name); err == nil {
			return &operand{col: i}, true
		}
	}
	return nil, false
}

// batchPred is the batch specialization of boundPred: it filters a
// whole batch at once, compacting its selection vector in place.
type batchPred func(b *Batch) error

// BindBatchPred compiles a predicate for a batched filter. A
// conjunction applies its conjuncts one after the other, each over the
// rows the ones before it kept, and a comparison of column references
// and literals runs as one loop over the batch with no closure call per
// row; anything else filters through BindPred. It keeps exactly the
// rows BindPred keeps and fails whenever BindPred fails on some row of
// the batch, but when two conjuncts fail on different rows it may
// report the other conjunct's error, since it finishes one conjunct
// over the batch before starting the next.
func (ev *Evaluator) BindBatchPred(e sql.Expr) batchPred {
	n, _ := e.(*sql.Binary)
	if n != nil && n.Op == sql.OpAnd {
		lp, rp := ev.BindBatchPred(n.L), ev.BindBatchPred(n.R)
		return func(b *Batch) error {
			if err := lp(b); err != nil || b.Len() == 0 {
				return err
			}
			return rp(b)
		}
	}
	if n != nil {
		if l, r, ok := ev.bindOperands(n); ok {
			op := n.Op
			return func(b *Batch) error { return compareBatch(b, op, l, r) }
		}
	}
	pred := ev.BindPred(e)
	return func(b *Batch) error { return FilterBatch(pred, b) }
}

// compareBatch keeps the live rows of b for which "l op r" holds. It
// makes two passes: the first gathers both operands' value pointers,
// which touches only the rows' headers, and the second compares them in
// one tight loop, so the cache misses on consecutive rows' values
// overlap instead of each one stalling the loop in turn.
func compareBatch(b *Batch, op sql.BinaryOp, l, r *operand) error {
	sel := b.liveSel()
	lv, rv := b.operandScratch(len(sel))
	for k, phys := range sel {
		row := b.rows[phys]
		lv[k], rv[k] = l.value(row), r.value(row)
	}
	kept := 0
	for k, phys := range sel {
		var ok bool
		if lv[k].Kind == model.KindInt && rv[k].Kind == model.KindInt {
			ok = compareInts(op, lv[k].Int, rv[k].Int)
		} else {
			var err error
			if ok, err = compareValues(op, lv[k], rv[k]); err != nil {
				return err
			}
		}
		// Write unconditionally and advance on a match: no branch on
		// the outcome, which is as unpredictable as the data.
		sel[kept] = phys
		if ok {
			kept++
		}
	}
	b.sel = sel[:kept]
	return nil
}

// FilterBatch evaluates a bound predicate over every live row of b and
// compacts the batch's selection vector in place to the qualifying
// rows. Rows are neither copied nor moved: a filter costs one int32
// write per surviving row. The in-place compaction is safe because the
// write position never passes the read position.
func FilterBatch(pred boundPred, b *Batch) error {
	sel := b.liveSel()
	out := sel[:0]
	for _, phys := range sel {
		ok, err := pred(b.rows[phys])
		if err != nil {
			return err
		}
		if ok {
			out = append(out, phys)
		}
	}
	b.sel = out
	return nil
}
