package exec

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/catalog"
	"repro/internal/model"
	"repro/internal/sql"
)

// BenchmarkPipelineBatch times the streaming pipeline the vectorized
// executor is built for — scan → σ(4 conjuncts) → π — on its own, without
// parsing, planning or result handling, at batches of one (the
// MaxBatchSize 1 engine) and at 1024 rows. It reports ns/row and
// allocs/row over the scanned rows; run it with -benchmem.
func BenchmarkPipelineBatch(b *testing.B) {
	const rows = 4096
	cat := catalog.New(nil, 64)
	t, err := cat.CreateTable("Birds", model.NewSchema("",
		model.Column{Name: "id", Kind: model.KindInt},
		model.Column{Name: "family", Kind: model.KindText},
		model.Column{Name: "wingspan", Kind: model.KindInt},
		model.Column{Name: "weight", Kind: model.KindInt},
		model.Column{Name: "status", Kind: model.KindText}))
	if err != nil {
		b.Fatal(err)
	}
	families := []string{"Corvidae", "Accipitridae", "Anatidae", "Strigidae"}
	statuses := []string{"LC", "NT", "VU", "EN"}
	for i := 0; i < rows; i++ {
		t.Insert([]model.Value{model.NewInt(int64(i)), model.NewText(families[i%len(families)]),
			model.NewInt(int64(i*37) % 300), model.NewInt(int64(i*101) % 12000),
			model.NewText(statuses[(i/7)%len(statuses)])})
	}
	pred, err := sql.ParseExpr(`b.wingspan > 150 AND b.weight > 6000 AND b.family <> 'Corvidae' AND b.status <> 'LC'`)
	if err != nil {
		b.Fatal(err)
	}
	id, err := sql.ParseExpr("b.id")
	if err != nil {
		b.Fatal(err)
	}
	out := model.NewSchema("", model.Column{Name: "id", Kind: model.KindInt})
	for _, size := range []int{1, 1024} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			var kept int
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scan := NewSeqScan(t, "b", false)
				// As compiled: a batched scan under a projection recycles its slab.
				scan.BatchSize, scan.TransientRows = size, size > 1
				got, err := Collect(NewBatchToRow(NewProject(NewFilter(scan, pred, nil), []sql.Expr{id}, out, nil)))
				if err != nil {
					b.Fatal(err)
				}
				kept = len(got)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			if kept == 0 {
				b.Fatal("predicate kept no rows")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*rows), "allocs/row")
		})
	}
}
