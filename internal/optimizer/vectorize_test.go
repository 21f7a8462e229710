package optimizer

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
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
