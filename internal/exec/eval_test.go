package exec

import (
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/sql"
)

// evalRow builds a one-row environment over (a INT, name TEXT) with a
// classifier and snippet summary attached.
func evalRow() (*Evaluator, *Row) {
	schema := model.NewSchema("r",
		model.Column{Name: "a", Kind: model.KindInt},
		model.Column{Name: "name", Kind: model.KindText},
	)
	set := model.SummarySet{
		{
			InstanceID: "C1", Type: model.SummaryClassifier,
			Reps: []model.Rep{
				{Label: "Disease", Count: 8, Elements: []int64{1, 2}},
				{Label: "Other", Count: 2, Elements: []int64{3}},
			},
		},
		{
			InstanceID: "T1", Type: model.SummarySnippet,
			Reps: []model.Rep{{Text: "observed hormone levels in swans", RepAnnID: 9, Elements: []int64{9}}},
		},
	}
	row := &Row{Tuple: &model.Tuple{OID: 7,
		Values:    []model.Value{model.NewInt(5), model.NewText("Swan Goose")},
		Summaries: set,
	}}
	return &Evaluator{Schema: schema}, row
}

// evalExpr parses src, binds it against ev's schema and evaluates the
// binding on row.
func evalExpr(t *testing.T, ev *Evaluator, row *Row, src string) model.Value {
	t.Helper()
	e, err := sql.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	v, err := ev.Bind(e)(row)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestEvalColumnsAndArithmetic(t *testing.T) {
	ev, row := evalRow()
	cases := map[string]model.Value{
		"a":              model.NewInt(5),
		"r.a":            model.NewInt(5),
		"a + 2":          model.NewInt(7),
		"a - 7":          model.NewInt(-2),
		"a * 3":          model.NewInt(15),
		"a / 2":          model.NewInt(2),
		"a / 0":          model.Null(),
		"-a":             model.NewInt(-5),
		"a + 0.5":        model.NewFloat(5.5),
		"'x' + 'y'":      model.NewText("xy"),
		"LENGTH(name)":   model.NewInt(10),
		"LOWER(name)":    model.NewText("swan goose"),
		"UPPER('ab')":    model.NewText("AB"),
		"ABS(0 - 3)":     model.NewInt(3),
		"ABS(0.0 - 1.5)": model.NewFloat(1.5),
	}
	for src, want := range cases {
		if got := evalExpr(t, ev, row, src); !got.Equal(want) && !(got.IsNull() && want.IsNull()) {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestEvalComparisonsAndLogic(t *testing.T) {
	ev, row := evalRow()
	truths := map[string]bool{
		"a = 5":              true,
		"a <> 5":             false,
		"a != 4":             true,
		"a < 6 AND a > 4":    true,
		"a < 5 OR a >= 5":    true,
		"NOT a = 5":          false,
		"name LIKE 'Swan%'":  true,
		"name LIKE '%goose'": true, // case-insensitive
		"name LIKE 'S_an%'":  true,
		"name LIKE 'Crow%'":  false,
		"NULL = 5":           false, // NULL comparisons are false
		"a > NULL":           false,
		"true AND false":     false,
		"true OR false":      true,
	}
	for src, want := range truths {
		e, err := sql.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		got, err := ev.BindPred(e)(row)
		if err != nil {
			t.Fatalf("eval %q: %v", src, err)
		}
		if got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestEvalSummaryFunctions(t *testing.T) {
	ev, row := evalRow()
	cases := map[string]model.Value{
		"$.getSize()":   model.NewInt(2),
		"r.$.getSize()": model.NewInt(2),
		"$.getSummaryObject('C1').getLabelValue('Disease')":          model.NewInt(8),
		"$.getSummaryObject('C1').getLabelValue(0)":                  model.NewInt(8),
		"$.getSummaryObject('C1').getLabelName(1)":                   model.NewText("Other"),
		"$.getSummaryObject('C1').getSummaryType()":                  model.NewText("Classifier"),
		"$.getSummaryObject('C1').getSummaryName()":                  model.NewText("C1"),
		"$.getSummaryObject('C1').getSize()":                         model.NewInt(2),
		"$.getSummaryObject('C1').getTotalCount()":                   model.NewInt(10),
		"$.getSummaryObject(1).getSummaryType()":                     model.NewText("Snippet"),
		"$.getSummaryObject('T1').getSnippet(0)":                     model.NewText("observed hormone levels in swans"),
		"$.getSummaryObject('T1').containsSingle('hormone')":         model.NewBool(true),
		"$.getSummaryObject('T1').containsUnion('hormone', 'swans')": model.NewBool(true),
		"$.getSummaryObject('T1').containsSingle('penguin')":         model.NewBool(false),
		// Missing object: NULL propagates through the chain.
		"$.getSummaryObject('Nope').getLabelValue('Disease')": model.Null(),
		// Unknown label yields NULL (predicates collapse to false).
		"$.getSummaryObject('C1').getLabelValue('Zzz')": model.Null(),
	}
	for src, want := range cases {
		got := evalExpr(t, ev, row, src)
		if want.IsNull() {
			if !got.IsNull() {
				t.Errorf("%q = %v, want NULL", src, got)
			}
			continue
		}
		if !got.Equal(want) {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	ev, row := evalRow()
	bad := []string{
		"nosuchcol",
		"$.getNoSuchFunc()",
		"$.getSummaryObject('C1').getNoSuch()",
		"a.getSize()",          // method on plain value
		"name * 2",             // non-numeric arithmetic
		"name LIKE 5",          // LIKE needs text
		"$.getSummaryObject()", // arity
		"LOWER(a, a)",          // arity
		"NOSUCHFUNC(a)",        // unknown scalar
		"$.getSummaryObject('T1').containsUnion()", // no keywords
		"COUNT(*)", // aggregate outside GROUP BY
	}
	for _, src := range bad {
		e, err := sql.ParseExpr(src)
		if err != nil {
			continue // some are parse errors, equally fine
		}
		if _, err := ev.Bind(e)(row); err == nil {
			t.Errorf("Bind(%q) should fail", src)
		}
	}
	// $ at the top level is not a value.
	e, _ := sql.ParseExpr("$")
	if _, err := ev.Bind(e)(row); err == nil || !strings.Contains(err.Error(), "summary set") {
		t.Errorf("bare $ error: %v", err)
	}
}

func TestEvalRawAnnotationFallback(t *testing.T) {
	ev, row := evalRow()
	ev.Lookup = func(id int64) (*model.Annotation, bool) {
		if id == 9 {
			return &model.Annotation{ID: 9, Text: "full raw article mentioning migration"}, true
		}
		return nil, false
	}
	got := evalExpr(t, ev, row, "$.getSummaryObject('T1').containsUnion('migration')")
	if !got.Bool {
		t.Error("raw-annotation fallback failed")
	}
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false}, // too short without %
		{"hello", "", false},
		{"", "%", true},
		{"abc", "%%%", true},
		{"abc", "a%c", true},
		{"abc", "a%d", false},
		{"aXbXc", "a%b%c", true},
		{"swan goose", "SWAN%", true}, // case-insensitive
		// '_' is one character, however many bytes encode it.
		{"Grébe", "Gr_be", true},
		{"Grébe", "Gr__be", false},
		{"GRÉBE", "gré%", true}, // case-insensitive beyond ASCII
		{"日本語", "_本_", true},
		{"日本語", "%語", true},
		{"日本語", "____", false},
		// A literal '%' in the input does not shadow the wildcard.
		{"%ba", "%a", true},
		// Invalid UTF-8 must not panic; a stray byte is one character.
		{"a\xffb", "a_b", true},
		{"a\xff", "a%", true},
		{"\xff\xfe", "__", true},
		{"\xe6\x97", "_", false},
		{"x", "\xff", false},
	}
	for _, c := range cases {
		if got := matchLike(c.s, c.p); got != c.want {
			t.Errorf("matchLike(%q,%q) = %v", c.s, c.p, got)
		}
	}
}

func TestRowSetForAndClone(t *testing.T) {
	_, row := evalRow()
	// Without alias sets, any qualifier resolves to the tuple's set.
	if row.SetFor("r") == nil || row.SetFor("") == nil {
		t.Error("SetFor fallback failed")
	}
	other := model.SummarySet{{InstanceID: "X", Type: model.SummaryCluster}}
	row.AliasSets = map[string]model.SummarySet{"s": other}
	if row.SetFor("s").Get("X") == nil {
		t.Error("alias set not used")
	}
	// Unknown alias with alias sets present falls back to the tuple set.
	if row.SetFor("zzz").Get("C1") == nil {
		t.Error("unknown-alias fallback failed")
	}
	// Single-entry alias map serves the empty qualifier.
	if row.SetFor("").Get("X") == nil {
		t.Error("single-alias empty-qualifier resolution failed")
	}
	cl := row.Clone()
	cl.Tuple.Values[0] = model.NewInt(99)
	cl.AliasSets["s"][0].InstanceID = "mutated"
	if row.Tuple.Values[0].Int != 5 || other[0].InstanceID != "X" {
		t.Error("Clone not deep")
	}
}
