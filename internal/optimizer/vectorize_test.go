package optimizer

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/sql"
)

// TestVectorizeLimitBound pins how a LIMIT sizes the batches of the
// segment below it: min(cap, n) when every operator between keeps its
// rows, a growing first batch when a filter drops rows, row-at-a-time
// when the bound is one row, and the full cap under a sort that reads
// its whole input.
func TestVectorizeLimitBound(t *testing.T) {
	tbl, err := catalog.New(nil, 8).CreateTable("R", model.NewSchema("",
		model.Column{Name: "a", Kind: model.KindInt}))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := sql.ParseExpr("r.a > 3")
	if err != nil {
		t.Fatal(err)
	}
	project := func(c plan.Node) plan.Node { return &plan.ProjectNode{Child: c, Out: c.Schema()} }
	limit := func(n int, c plan.Node) plan.Node { return &plan.LimitNode{Child: c, N: n} }
	sort := func(eliminated bool, c plan.Node) plan.Node {
		return &plan.SortNode{Child: c, Eliminated: eliminated}
	}
	filter := func(c plan.Node) plan.Node { return &plan.Select{Child: c, Pred: pred} }
	for _, tc := range []struct {
		name string
		root func(scan plan.Node) plan.Node
		want string // the scan's marking: "batch/start"
	}{
		{"no limit", func(s plan.Node) plan.Node { return project(s) }, "1024/0"},
		{"limit over project", func(s plan.Node) plan.Node { return limit(50, project(s)) }, "50/0"},
		{"limit over eliminated sort", func(s plan.Node) plan.Node {
			return limit(50, project(sort(true, s)))
		}, "50/0"},
		{"limit above cap", func(s plan.Node) plan.Node { return limit(5000, project(s)) }, "1024/0"},
		{"limit 1", func(s plan.Node) plan.Node { return limit(1, project(sort(true, s))) }, "0/0"},
		{"limit 0", func(s plan.Node) plan.Node { return limit(0, s) }, "0/0"},
		{"limit over filter", func(s plan.Node) plan.Node { return limit(50, project(filter(s))) }, "1024/50"},
		{"limit 0 over filter", func(s plan.Node) plan.Node { return limit(0, filter(s)) }, "1024/1"},
		{"filter under eliminated sort", func(s plan.Node) plan.Node {
			return limit(7, sort(true, filter(s)))
		}, "1024/7"},
		{"limit over kept sort", func(s plan.Node) plan.Node { return limit(50, sort(false, s)) }, "1024/0"},
	} {
		scan := plan.NewScan(tbl, "r")
		rw := &rewriter{opts: Options{MaxBatchSize: 1024}}
		rw.vectorize(tc.root(scan))
		if got := fmt.Sprintf("%d/%d", scan.Batch, scan.BatchStart); got != tc.want {
			t.Errorf("%s: scan marked %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCompileTransientRowsOnlyUnderProject pins which scans recycle
// their row storage: only a batched scan whose rows reach a batched
// Project through batched filters and limits alone, since the Project
// copies what it keeps. A sort between them, no Project at all, or row
// mode leaves the scan allocating fresh rows per batch.
func TestCompileTransientRowsOnlyUnderProject(t *testing.T) {
	tbl, err := catalog.New(nil, 8).CreateTable("R", model.NewSchema("",
		model.Column{Name: "a", Kind: model.KindInt}))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := sql.ParseExpr("r.a > 3")
	if err != nil {
		t.Fatal(err)
	}
	project := func(c plan.Node) plan.Node { return &plan.ProjectNode{Child: c, Out: c.Schema()} }
	limit := func(n int, c plan.Node) plan.Node { return &plan.LimitNode{Child: c, N: n} }
	sort := func(c plan.Node) plan.Node { return &plan.SortNode{Child: c} }
	filter := func(c plan.Node) plan.Node { return &plan.Select{Child: c, Pred: pred} }
	for _, tc := range []struct {
		name  string
		batch int
		root  func(scan plan.Node) plan.Node
		want  bool
	}{
		{"project over scan", 1024, func(s plan.Node) plan.Node { return project(s) }, true},
		{"project over filters", 1024, func(s plan.Node) plan.Node { return project(filter(filter(s))) }, true},
		{"project over summary select", 1024, func(s plan.Node) plan.Node {
			return project(&plan.SummarySelect{Child: filter(s), Pred: pred})
		}, true},
		{"limit over project", 1024, func(s plan.Node) plan.Node { return limit(50, project(filter(s))) }, true},
		{"project over sort", 1024, func(s plan.Node) plan.Node { return project(sort(filter(s))) }, false},
		// vectorize never batches a Project over a sort; the compiler
		// must still not pass the promise through one.
		{"batched project over sort", 1024, func(s plan.Node) plan.Node {
			return &plan.ProjectNode{Child: sort(filter(s)), Out: s.Schema(), Batch: 1024}
		}, false},
		{"no project", 1024, func(s plan.Node) plan.Node { return limit(50, filter(s)) }, false},
		{"row mode", 1, func(s plan.Node) plan.Node { return project(filter(s)) }, false},
	} {
		scan := plan.NewScan(tbl, "r")
		root := tc.root(scan)
		(&rewriter{opts: Options{MaxBatchSize: tc.batch}}).vectorize(root)
		it, err := Compile(root, &Env{}, Options{MaxBatchSize: tc.batch})
		if err != nil {
			t.Fatal(err)
		}
		scans := map[uintptr]bool{}
		findScans(reflect.ValueOf(it), scans)
		var got []bool
		for _, tr := range scans {
			got = append(got, tr)
		}
		if len(got) != 1 || got[0] != tc.want {
			t.Errorf("%s: scan TransientRows %v, want [%v]", tc.name, got, tc.want)
		}
	}
}

// findScans records the TransientRows flag of every SeqScan in an
// operator tree, keyed by scan, following the operators' Iterator and
// BatchOperator fields (an operator may hold its input under both).
func findScans(v reflect.Value, out map[uintptr]bool) {
	switch v.Kind() {
	case reflect.Interface:
		findScans(v.Elem(), out)
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		if v.Type() == reflect.TypeOf((*exec.SeqScan)(nil)) {
			out[v.Pointer()] = v.Elem().FieldByName("TransientRows").Bool()
			return
		}
		findScans(v.Elem(), out)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Interface {
				findScans(f, out)
			}
		}
	}
}
