package exec

import (
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"

	"repro/internal/model"
	"repro/internal/sql"
)

// Evaluator compiles sql.Expr trees against one input schema (see Bind
// and BindPred). It carries the annotation lookup used by
// containsSingle/containsUnion raw-text search.
type Evaluator struct {
	Schema *model.Schema
	Lookup model.AnnotationLookup
}

// result is the value domain of a summary method chain: a relational
// value, a summary set ($), or a single summary object.
type result struct {
	val  model.Value
	set  model.SummarySet
	obj  *model.SummaryObject
	kind resultKind
}

type resultKind uint8

const (
	kindValue resultKind = iota
	kindSet
	kindObject
	// kindNullObject is a missing getSummaryObject result: it propagates
	// NULL through the rest of the method chain.
	kindNullObject
)

func valueResult(v model.Value) result { return result{val: v} }

// resolveValue narrows a method-chain result to a relational value.
// Summary sets and objects are not first-class SQL values: reaching a
// value position with one is an error naming the expression.
func resolveValue(e sql.Expr, r result) (model.Value, error) {
	switch r.kind {
	case kindValue:
		return r.val, nil
	case kindNullObject:
		return model.Null(), nil
	case kindSet:
		return model.Value{}, fmt.Errorf("exec: expression %s yields a summary set, not a value", e)
	default:
		return model.Value{}, fmt.Errorf("exec: expression %s yields a summary object, not a value", e)
	}
}

// negValue applies unary minus.
func negValue(v model.Value) (model.Value, error) {
	switch v.Kind {
	case model.KindInt:
		return model.NewInt(-v.Int), nil
	case model.KindFloat:
		return model.NewFloat(-v.Float), nil
	case model.KindNull:
		return model.Null(), nil
	default:
		return model.Value{}, fmt.Errorf("exec: cannot negate %s", v.Kind)
	}
}

// applyBinary applies a non-boolean binary operator to two evaluated
// operands: NULL comparisons collapse to false, division by zero yields
// NULL, text + text concatenates, and LIKE is case-insensitive.
func applyBinary(op sql.BinaryOp, l, r model.Value) (model.Value, error) {
	if op == sql.OpLike {
		if l.IsNull() || r.IsNull() {
			return model.NewBool(false), nil
		}
		if l.Kind != model.KindText || r.Kind != model.KindText {
			return model.Value{}, fmt.Errorf("exec: LIKE requires text operands")
		}
		return model.NewBool(matchLike(l.Text, r.Text)), nil
	}
	if op.IsComparison() {
		ok, err := compareValues(op, &l, &r)
		if err != nil {
			return model.Value{}, err
		}
		return model.NewBool(ok), nil
	}

	// Arithmetic.
	if l.IsNull() || r.IsNull() {
		return model.Null(), nil
	}
	if op == sql.OpAdd && l.Kind == model.KindText && r.Kind == model.KindText {
		return model.NewText(l.Text + r.Text), nil
	}
	if !l.IsNumeric() || !r.IsNumeric() {
		return model.Value{}, fmt.Errorf("exec: %s requires numeric operands, got %s and %s", op, l.Kind, r.Kind)
	}
	if l.Kind == model.KindInt && r.Kind == model.KindInt {
		a, b := l.Int, r.Int
		switch op {
		case sql.OpAdd:
			return model.NewInt(a + b), nil
		case sql.OpSub:
			return model.NewInt(a - b), nil
		case sql.OpMul:
			return model.NewInt(a * b), nil
		case sql.OpDiv:
			if b == 0 {
				return model.Null(), nil
			}
			return model.NewInt(a / b), nil
		}
	}
	a, b := l.AsFloat(), r.AsFloat()
	switch op {
	case sql.OpAdd:
		return model.NewFloat(a + b), nil
	case sql.OpSub:
		return model.NewFloat(a - b), nil
	case sql.OpMul:
		return model.NewFloat(a * b), nil
	case sql.OpDiv:
		if b == 0 {
			return model.Null(), nil
		}
		return model.NewFloat(a / b), nil
	}
	return model.Value{}, fmt.Errorf("exec: unsupported binary op %s", op)
}

// compareValues decides a comparison other than LIKE over two operands
// read in place: NULL on either side is false, integers and texts
// compare directly, and any other kind pair goes through
// model.Value.Compare, whose error it returns. applyBinary, bound
// predicates and batch filters all compare through it.
func compareValues(op sql.BinaryOp, l, r *model.Value) (bool, error) {
	if l.Kind == model.KindNull || r.Kind == model.KindNull {
		return false, nil
	}
	var c int
	switch {
	case l.Kind == model.KindInt && r.Kind == model.KindInt:
		return compareInts(op, l.Int, r.Int), nil
	case l.Kind == model.KindText && r.Kind == model.KindText:
		c = strings.Compare(l.Text, r.Text)
	default:
		var err error
		if c, err = l.Compare(*r); err != nil {
			return false, err
		}
	}
	return compareHolds(op, c), nil
}

// compareInts decides a comparison other than LIKE of two integers.
// It inlines, so batch compare loops pay no call per row.
func compareInts(op sql.BinaryOp, a, b int64) bool {
	c := 0
	if a < b {
		c = -1
	}
	if a > b {
		c = 1
	}
	return compareHolds(op, c)
}

// compareHolds reports whether a three-way comparison result c (-1, 0
// or 1) satisfies a comparison operator other than LIKE. It is a table
// lookup rather than a switch so that compare loops carry no branch on
// the outcome.
func compareHolds(op sql.BinaryOp, c int) bool {
	return uint(op) < uint(len(holdMasks)) && holdMasks[op]>>(c+1)&1 != 0
}

// holdMasks has bit c+1 of an operator's entry set when the comparison
// result c satisfies it; no other operator holds for any result.
var holdMasks = [...]uint8{
	sql.OpEq: 0b010,
	sql.OpNe: 0b101,
	sql.OpLt: 0b001,
	sql.OpLe: 0b011,
	sql.OpGt: 0b100,
	sql.OpGe: 0b110,
}

// boundSummary evaluates a $ reference or a method chain; its result
// may be a summary set or object rather than a value.
type boundSummary func(row *Row) (result, error)

// setMethod and objectMethod are a bound method applied to an already
// evaluated receiver.
type (
	setMethod    func(set model.SummarySet, row *Row) (result, error)
	objectMethod func(obj *model.SummaryObject, row *Row) (result, error)
)

// bindSummary lowers an expression that may yield a summary set or
// object: $ references, the Section 3.1 manipulation functions, and
// (as plain values) everything else.
func (ev *Evaluator) bindSummary(e sql.Expr) boundSummary {
	switch n := e.(type) {
	case *sql.DollarRef:
		q := n.Qualifier
		return func(row *Row) (result, error) {
			return result{set: row.SetFor(q), kind: kindSet}, nil
		}
	case *sql.MethodCall:
		return ev.bindMethod(n)
	}
	be := ev.Bind(e)
	return func(row *Row) (result, error) {
		v, err := be(row)
		return valueResult(v), err
	}
}

// bindMethod lowers a manipulation-function call. The method name is
// resolved once for each receiver kind it may meet; which one runs is
// decided per row by the receiver's result.
func (ev *Evaluator) bindMethod(m *sql.MethodCall) boundSummary {
	recv := ev.bindSummary(m.Recv)
	onSet, onObj := ev.bindSetMethod(m), ev.bindObjectMethod(m)
	notCallable := fmt.Errorf("exec: %s is not callable on a plain value", m.Name)
	return func(row *Row) (result, error) {
		r, err := recv(row)
		if err != nil {
			return result{}, err
		}
		switch r.kind {
		case kindSet:
			return onSet(r.set, row)
		case kindObject:
			return onObj(r.obj, row)
		case kindNullObject:
			// Method chain over a missing summary object: NULL propagates.
			return r, nil
		default:
			return result{}, notCallable
		}
	}
}

// bindArg binds the single argument of a one-argument method.
func (ev *Evaluator) bindArg(m *sql.MethodCall) (boundExpr, error) {
	if len(m.Args) != 1 {
		return nil, fmt.Errorf("exec: %s expects %d arguments, got %d", m.Name, 1, len(m.Args))
	}
	return ev.Bind(m.Args[0]), nil
}

func (ev *Evaluator) bindSetMethod(m *sql.MethodCall) setMethod {
	switch strings.ToLower(m.Name) {
	case "getsize":
		return func(set model.SummarySet, _ *Row) (result, error) {
			return valueResult(model.NewInt(int64(set.Size()))), nil
		}
	case "getsummaryobject":
		arg, err := ev.bindArg(m)
		if err != nil {
			return func(model.SummarySet, *Row) (result, error) { return result{}, err }
		}
		return func(set model.SummarySet, row *Row) (result, error) {
			v, err := arg(row)
			if err != nil {
				return result{}, err
			}
			var obj *model.SummaryObject
			if v.Kind == model.KindText {
				obj = set.Get(v.Text)
			} else {
				obj = set.At(int(v.AsInt()))
			}
			if obj == nil {
				return result{kind: kindNullObject}, nil
			}
			return result{obj: obj, kind: kindObject}, nil
		}
	}
	err := fmt.Errorf("exec: unknown summary-set function %q", m.Name)
	return func(model.SummarySet, *Row) (result, error) { return result{}, err }
}

func (ev *Evaluator) bindObjectMethod(m *sql.MethodCall) objectMethod {
	switch name := strings.ToLower(m.Name); name {
	case "getsummarytype":
		return objectValue(func(o *model.SummaryObject) model.Value { return model.NewText(o.GetSummaryType()) })
	case "getsummaryname":
		return objectValue(func(o *model.SummaryObject) model.Value { return model.NewText(o.GetSummaryName()) })
	case "getsize":
		return objectValue(func(o *model.SummaryObject) model.Value { return model.NewInt(int64(o.Size())) })
	case "gettotalcount":
		return objectValue(func(o *model.SummaryObject) model.Value { return model.NewInt(int64(o.TotalCount())) })
	case "getlabelname":
		return ev.bindObjectLookup(m, func(o *model.SummaryObject, arg model.Value) (model.Value, error) {
			s, err := o.GetLabelName(int(arg.AsInt()))
			return model.NewText(s), err
		})
	case "getlabelvalue":
		return ev.bindObjectLookup(m, func(o *model.SummaryObject, arg model.Value) (model.Value, error) {
			var n int
			var err error
			if arg.Kind == model.KindText {
				n, err = o.GetLabelValue(arg.Text)
			} else {
				n, err = o.GetLabelValueAt(int(arg.AsInt()))
			}
			return model.NewInt(int64(n)), err
		})
	case "getsnippet":
		return ev.bindObjectLookup(m, func(o *model.SummaryObject, arg model.Value) (model.Value, error) {
			s, err := o.GetSnippet(int(arg.AsInt()))
			return model.NewText(s), err
		})
	case "getrepresentative":
		return ev.bindObjectLookup(m, func(o *model.SummaryObject, arg model.Value) (model.Value, error) {
			s, err := o.GetRepresentative(int(arg.AsInt()))
			return model.NewText(s), err
		})
	case "getgroupsize":
		return ev.bindObjectLookup(m, func(o *model.SummaryObject, arg model.Value) (model.Value, error) {
			n, err := o.GetGroupSize(int(arg.AsInt()))
			return model.NewInt(int64(n)), err
		})
	case "containssingle", "containsunion":
		return ev.bindContains(m, name == "containssingle")
	}
	err := fmt.Errorf("exec: unknown summary-object function %q", m.Name)
	return func(*model.SummaryObject, *Row) (result, error) { return result{}, err }
}

// objectValue lowers an argument-free summary-object accessor.
func objectValue(get func(*model.SummaryObject) model.Value) objectMethod {
	return func(o *model.SummaryObject, _ *Row) (result, error) { return valueResult(get(o)), nil }
}

// bindObjectLookup lowers a one-argument summary-object accessor. An
// out-of-range index, unknown label or wrong summary type yields SQL
// NULL (predicates over it collapse to false).
func (ev *Evaluator) bindObjectLookup(m *sql.MethodCall,
	get func(*model.SummaryObject, model.Value) (model.Value, error)) objectMethod {
	arg, err := ev.bindArg(m)
	if err != nil {
		return func(*model.SummaryObject, *Row) (result, error) { return result{}, err }
	}
	return func(o *model.SummaryObject, row *Row) (result, error) {
		v, err := arg(row)
		if err != nil {
			return result{}, err
		}
		out, err := get(o, v)
		if err != nil {
			return valueResult(model.Null()), nil
		}
		return valueResult(out), nil
	}
}

// bindContains lowers containsSingle/containsUnion: keyword search over
// the object's representatives, falling back to the raw annotations
// through the lookup.
func (ev *Evaluator) bindContains(m *sql.MethodCall, single bool) objectMethod {
	if len(m.Args) == 0 {
		err := fmt.Errorf("exec: %s needs at least one keyword", m.Name)
		return func(*model.SummaryObject, *Row) (result, error) { return result{}, err }
	}
	args := ev.bindAll(m.Args)
	notText := fmt.Errorf("exec: %s keywords must be text", m.Name)
	lookup := ev.Lookup
	return func(o *model.SummaryObject, row *Row) (result, error) {
		kws := make([]string, len(args))
		for i, arg := range args {
			v, err := arg(row)
			if err != nil {
				return result{}, err
			}
			if v.Kind != model.KindText {
				return result{}, notText
			}
			kws[i] = v.Text
		}
		if single {
			return valueResult(model.NewBool(o.ContainsSingle(lookup, kws...))), nil
		}
		return valueResult(model.NewBool(o.ContainsUnion(lookup, kws...))), nil
	}
}

// bindFunc lowers a scalar function call. Every argument is evaluated
// before an arity or unknown-function error is reported, so argument
// errors take precedence, row by row.
func (ev *Evaluator) bindFunc(f *sql.FuncCall) boundExpr {
	if f.IsAggregate() {
		return failExpr(fmt.Errorf("exec: aggregate %s outside GROUP BY context", f.Name))
	}
	args := ev.bindAll(f.Args)
	apply, err := scalarFunc(f.Name, len(args))
	return func(row *Row) (model.Value, error) {
		var last model.Value
		for _, arg := range args {
			v, err := arg(row)
			if err != nil {
				return model.Value{}, err
			}
			last = v
		}
		if err != nil {
			return model.Value{}, err
		}
		return apply(last)
	}
}

// scalarFunc resolves a scalar function of n arguments. Every supported
// function takes exactly one argument.
func scalarFunc(name string, n int) (func(model.Value) (model.Value, error), error) {
	var apply func(model.Value) (model.Value, error)
	var arity error
	switch strings.ToLower(name) {
	case "lower":
		arity = errors.New("exec: LOWER expects 1 argument")
		apply = func(v model.Value) (model.Value, error) { return model.NewText(strings.ToLower(v.String())), nil }
	case "upper":
		arity = errors.New("exec: UPPER expects 1 argument")
		apply = func(v model.Value) (model.Value, error) { return model.NewText(strings.ToUpper(v.String())), nil }
	case "length":
		arity = errors.New("exec: LENGTH expects 1 argument")
		apply = func(v model.Value) (model.Value, error) { return model.NewInt(int64(len(v.String()))), nil }
	case "abs":
		arity = errors.New("exec: ABS expects 1 numeric argument")
		apply = func(v model.Value) (model.Value, error) {
			switch v.Kind {
			case model.KindInt:
				if v.Int < 0 {
					return model.NewInt(-v.Int), nil
				}
				return model.NewInt(v.Int), nil
			case model.KindFloat:
				if v.Float < 0 {
					return model.NewFloat(-v.Float), nil
				}
				return model.NewFloat(v.Float), nil
			}
			return model.Value{}, arity
		}
	default:
		return nil, fmt.Errorf("exec: unknown function %q", name)
	}
	if n != 1 {
		return nil, arity
	}
	return apply, nil
}

// matchLike implements SQL LIKE with % (any run) and _ (any one
// character), case-insensitively (the common scientific-DB
// configuration).
func matchLike(s, pattern string) bool {
	return likeMatch(strings.ToLower(s), strings.ToLower(pattern))
}

// likeMatch is an iterative two-pointer matcher with backtracking on
// '%'. It steps whole UTF-8 characters, so '_' consumes one character
// however many bytes encode it; a byte that is not valid UTF-8 counts
// as one character and matches only itself (or '_').
func likeMatch(s, p string) bool {
	si, pi := 0, 0
	starP, starS := -1, 0
	for si < len(s) {
		_, sw := utf8.DecodeRuneInString(s[si:])
		if pi < len(p) {
			if p[pi] == '%' {
				starP, starS = pi, si
				pi++
				continue
			}
			_, pw := utf8.DecodeRuneInString(p[pi:])
			if p[pi] == '_' || s[si:si+sw] == p[pi:pi+pw] {
				si += sw
				pi += pw
				continue
			}
		}
		if starP < 0 {
			return false
		}
		_, w := utf8.DecodeRuneInString(s[starS:])
		starS += w
		si, pi = starS, starP+1
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
