package exec

import (
	"testing"

	"repro/internal/model"
	"repro/internal/sql"
)

// oneGroupRows builds n rows of one group, each carrying a classifier
// and a 4-snippet object over annotations of its own.
func oneGroupRows(n int) []*Row {
	rows := make([]*Row, n)
	for i := range rows {
		base := int64(i) * 10
		snips := make([]model.Rep, 4)
		for k := range snips {
			id := base + int64(k) + 1
			snips[k] = model.Rep{Text: "snippet", RepAnnID: id, Elements: []int64{id}}
		}
		rows[i] = &Row{Tuple: &model.Tuple{OID: int64(i + 1),
			Values: []model.Value{model.NewInt(1)},
			Summaries: model.SummarySet{
				{InstanceID: "C1", Type: model.SummaryClassifier, Reps: []model.Rep{
					{Label: "Disease", Count: 2, Elements: []int64{base + 1, base + 2}},
					{Label: "Other", Count: 1, Elements: []int64{base + 3}},
				}},
				{InstanceID: "S1", Type: model.SummarySnippet, Reps: snips},
			}}}
	}
	return rows
}

// TestGroupBySummaryFoldIsLinear guards the summary fold's complexity:
// allocations per member must stay flat as a group grows. A fold that
// re-copies the accumulated set for every member allocates in
// proportion to the group size, so its per-member count at 400 members
// is several times the count at 50.
func TestGroupBySummaryFoldIsLinear(t *testing.T) {
	schema := model.NewSchema("r", model.Column{Name: "g", Kind: model.KindInt})
	keys := []sql.Expr{mustExpr(t, "r.g")}
	aggs := []AggSpec{{Func: "count", Star: true, Name: "cnt"}}
	perMember := func(n int) float64 {
		in := NewSliceIter(schema, oneGroupRows(n))
		allocs := testing.AllocsPerRun(5, func() {
			out, err := Collect(NewGroupBy(in, keys, aggs, nil))
			if err != nil || len(out) != 1 || out[0].Tuple.Summaries.Get("S1").Size() != 4*n {
				t.Fatalf("n=%d: unexpected result %v, %v", n, out, err)
			}
		})
		return allocs / float64(n)
	}
	small, large := perMember(50), perMember(400)
	t.Logf("allocs per member: %.1f at 50, %.1f at 400", small, large)
	if large > 1.5*small {
		t.Fatalf("allocs per member grow with the group: %.1f at 50 members, %.1f at 400", small, large)
	}
}
