package exec

import (
	"testing"

	"repro/internal/model"
	"repro/internal/sql"
)

// TestBindErrorsAreLazy pins the contract that binding an expression
// never fails: an operator holding an unresolvable column, an unknown
// summary method or an aggregate outside GROUP BY opens and drains an
// empty input cleanly, and reports the expression's error only when a
// row reaches it.
func TestBindErrorsAreLazy(t *testing.T) {
	exprs := []struct {
		src, want string
	}{
		{"nosuch", `model: unknown column "nosuch"`},
		{"$.getNoSuch()", `exec: unknown summary-set function "getNoSuch"`},
		{"COUNT(v)", "exec: aggregate COUNT outside GROUP BY context"},
	}
	schema := model.NewSchema("t", model.Column{Name: "v", Kind: model.KindInt})
	ops := []struct {
		name  string
		build func(in func() Iterator, e sql.Expr) Iterator
	}{
		{"Project", func(in func() Iterator, e sql.Expr) Iterator {
			out := model.NewSchema("", model.Column{Name: "x", Kind: model.KindInt})
			return NewBatchToRow(NewProject(NewRowToBatch(in(), 1), []sql.Expr{e}, out, nil))
		}},
		{"Sort", func(in func() Iterator, e sql.Expr) Iterator {
			return NewSort(in(), []SortKey{{Expr: e}}, nil)
		}},
		{"GroupBy key", func(in func() Iterator, e sql.Expr) Iterator {
			return NewGroupBy(in(), []sql.Expr{e}, []AggSpec{{Func: "count", Star: true, Name: "n"}}, nil)
		}},
		{"GroupBy aggregate", func(in func() Iterator, e sql.Expr) Iterator {
			return NewGroupBy(in(), nil, []AggSpec{{Func: "sum", Arg: e, Name: "s"}}, nil)
		}},
		{"HashJoin key", func(in func() Iterator, e sql.Expr) Iterator {
			return NewHashJoin(in(), in(), mustExpr(t, "v"), e, nil, false, nil)
		}},
		{"HashJoin residual", func(in func() Iterator, e sql.Expr) Iterator {
			return NewHashJoin(in(), in(), mustExpr(t, "v"), mustExpr(t, "v"), e, false, nil)
		}},
	}
	for _, op := range ops {
		for _, x := range exprs {
			empty := func() Iterator { return NewSliceIter(schema, nil) }
			if _, err := Collect(op.build(empty, mustExpr(t, x.src))); err != nil {
				t.Errorf("%s over %s, empty input: %v", op.name, x.src, err)
			}
			one := func() Iterator {
				return NewSliceIter(schema, []*Row{{Tuple: model.NewTuple(1, model.NewInt(1))}})
			}
			_, err := Collect(op.build(one, mustExpr(t, x.src)))
			if err == nil || err.Error() != x.want {
				t.Errorf("%s over %s, one row: error %v, want %q", op.name, x.src, err, x.want)
			}
		}
	}
}

// bindSeeds are the expressions of the TestEval* cases, the fuzz
// corpus FuzzBind starts from.
var bindSeeds = []string{
	"a", "r.a", "a + 2", "a - 7", "a * 3", "a / 2", "a / 0", "-a", "a + 0.5",
	"'x' + 'y'", "LENGTH(name)", "LOWER(name)", "UPPER('ab')", "ABS(0 - 3)",
	"ABS(0.0 - 1.5)",
	"a = 5", "a <> 5", "a != 4", "a < 6 AND a > 4", "a < 5 OR a >= 5",
	"NOT a = 5", "name LIKE 'Swan%'", "name LIKE '%goose'", "name LIKE 'S_an%'",
	"name LIKE 'Crow%'", "NULL = 5", "a > NULL", "true AND false", "true OR false",
	"$.getSize()", "r.$.getSize()",
	"$.getSummaryObject('C1').getLabelValue('Disease')",
	"$.getSummaryObject('C1').getLabelValue(0)",
	"$.getSummaryObject('C1').getLabelName(1)",
	"$.getSummaryObject('C1').getSummaryType()",
	"$.getSummaryObject('C1').getSummaryName()",
	"$.getSummaryObject('C1').getSize()",
	"$.getSummaryObject('C1').getTotalCount()",
	"$.getSummaryObject(1).getSummaryType()",
	"$.getSummaryObject('T1').getSnippet(0)",
	"$.getSummaryObject('T1').containsSingle('hormone')",
	"$.getSummaryObject('T1').containsUnion('hormone', 'swans')",
	"$.getSummaryObject('T1').containsSingle('penguin')",
	"$.getSummaryObject('Nope').getLabelValue('Disease')",
	"$.getSummaryObject('C1').getLabelValue('Zzz')",
	"nosuchcol", "$.getNoSuchFunc()", "$.getSummaryObject('C1').getNoSuch()",
	"a.getSize()", "name * 2", "name LIKE 5", "$.getSummaryObject()",
	"LOWER(a, a)", "NOSUCHFUNC(a)", "$.getSummaryObject('T1').containsUnion()",
	"COUNT(*)", "$",
	"$.getSummaryObject('T1').containsUnion('migration')",
	"9007199254740993 = 9007199254740992",
}

// FuzzBind parses arbitrary text as an expression and evaluates it on
// evalRow's row both ways: Bind must never panic, and BindPred must
// agree with the truth of Bind's value — the same error when Bind
// fails. This holds the direct column/literal comparisons of
// bindComparePred to the generic path.
func FuzzBind(f *testing.F) {
	for _, s := range bindSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := sql.ParseExpr(src)
		if err != nil {
			return
		}
		ev, row := evalRow()
		ev.Lookup = func(id int64) (*model.Annotation, bool) {
			return &model.Annotation{ID: id, Text: "raw text about migration"}, id == 9
		}
		v, verr := ev.Bind(e)(row)
		ok, perr := ev.BindPred(e)(row)
		switch {
		case verr != nil:
			if perr == nil || perr.Error() != verr.Error() {
				t.Fatalf("%s: Bind error %q, BindPred error %v", e, verr, perr)
			}
		case perr != nil:
			t.Fatalf("%s: Bind yields %v, BindPred error %q", e, v, perr)
		case ok != v.Truth():
			t.Fatalf("%s: Bind yields %v (truth %v), BindPred %v", e, v, v.Truth(), ok)
		}
	})
}

// TestBindPredLargeIntComparison is the regression test for the first
// FuzzBind finding: integers beyond 2^53 compared through a float64
// round trip on the generic path (so 2^53+1 = 2^53 held) but exactly on
// BindPred's direct int64 path, so a filter's answer depended on
// whether it ran row-at-a-time or batched. Comparison is now exact on
// both paths.
func TestBindPredLargeIntComparison(t *testing.T) {
	ev, row := evalRow()
	cases := map[string]bool{
		"9007199254740993 = 9007199254740992":   false,
		"9007199254740993 > 9007199254740992":   true,
		"9007199254740993 <> 9007199254740992":  true,
		"9007199254740993 = 9007199254740993":   true,
		"-9007199254740993 < -9007199254740992": true,
	}
	for src, want := range cases {
		e := mustExpr(t, src)
		v, err := ev.Bind(e)(row)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		ok, err := ev.BindPred(e)(row)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if v.Truth() != want || ok != want {
			t.Errorf("%s: Bind %v, BindPred %v, want %v", src, v, ok, want)
		}
	}
}
