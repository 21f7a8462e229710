package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/sql"
)

func TestBatchSelectionAndTruncate(t *testing.T) {
	b := GetBatch(8)
	_, rows := intRows(6)
	for _, r := range rows {
		b.Append(r)
	}
	if b.Len() != 6 {
		t.Fatalf("dense len = %d, want 6", b.Len())
	}
	// Select the even physical slots.
	sel := b.selStorage(3)
	sel = append(sel, 0, 2, 4)
	b.sel = sel
	if b.Len() != 3 {
		t.Fatalf("selected len = %d, want 3", b.Len())
	}
	for i, want := range []int{0, 2, 4} {
		if b.Row(i) != rows[want] {
			t.Fatalf("Row(%d) != physical row %d", i, want)
		}
	}
	b.Truncate(2)
	if b.Len() != 2 || b.Row(1) != rows[2] {
		t.Fatalf("truncated selection wrong: len=%d", b.Len())
	}
	// Appending through a selection is a protocol violation.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Append on a selected batch should panic")
			}
		}()
		b.Append(rows[0])
	}()
	b.Release()
	// The pool must hand back a clean container, never retained rows.
	b2 := GetBatch(8)
	if b2.Len() != 0 || b2.sel != nil {
		t.Fatalf("pooled batch not clean: len=%d sel=%v", b2.Len(), b2.sel)
	}
	b2.Release()

	// LIMIT, transformations and a batch filter shorten a container or
	// fill its scratch; Release must still drop every reference it
	// ever held, not just the live prefix.
	schema, _ := intRows(0)
	gt2 := (&Evaluator{Schema: schema}).BindBatchPred(mustExpr(t, "v > 2"))
	for _, c := range []struct {
		name   string
		shrink func(*Batch)
	}{
		{"truncate", func(b *Batch) { b.Truncate(1) }},
		{"transform", func(b *Batch) {
			b.sel = append(b.selStorage(2), 1, 3)
			transformBatch(b, func(r *Row) *Row { return r })
		}},
		{"filter", func(b *Batch) {
			if err := gt2(b); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		b := GetBatch(8)
		for _, r := range rows {
			b.Append(r)
		}
		c.shrink(b)
		b.Release()
		for i, r := range b.rows[:cap(b.rows)] {
			if r != nil {
				t.Fatalf("%s: released container still holds row slot %d", c.name, i)
			}
		}
		for i, v := range b.operands[:cap(b.operands)] {
			if v != nil {
				t.Fatalf("%s: released container still holds operand %d", c.name, i)
			}
		}
	}
}

// TestStreamingOperatorsAreBatchOnly pins the one execution path of the
// streaming operators: each produces batches only, so row consumers
// must read it through batchToRow and nothing can drive a second,
// row-at-a-time body.
func TestStreamingOperatorsAreBatchOnly(t *testing.T) {
	for _, op := range []any{&SeqScan{}, &SummaryIndexScan{}, &PredicateFilter{},
		&SummaryFilter{}, &Project{}, &SummaryEffectProject{}, &Limit{}} {
		if _, ok := op.(BatchOperator); !ok {
			t.Errorf("%T does not produce batches", op)
		}
		if _, ok := op.(Iterator); ok {
			t.Errorf("%T still implements the row protocol", op)
		}
	}
}

func TestTransformBatchConsumesSelection(t *testing.T) {
	b := GetBatch(8)
	_, rows := intRows(5)
	for _, r := range rows {
		b.Append(r)
	}
	sel := b.selStorage(3)
	b.sel = append(sel, 1, 3, 4)
	transformBatch(b, func(r *Row) *Row { return r })
	if b.sel != nil {
		t.Fatal("transformBatch should consume the selection vector")
	}
	if b.Len() != 3 {
		t.Fatalf("len = %d, want 3", b.Len())
	}
	for i, want := range []int{1, 3, 4} {
		if b.Row(i) != rows[want] {
			t.Fatalf("compacted row %d != physical row %d", i, want)
		}
	}
	b.Release()
}

// TestBatchRoundTripPreservesRows pins the adapter contract: rows
// travelling SliceIter -> rowToBatch -> batchToRow come out as the very
// same pointers in the same order, and releasing the in-flight
// containers never invalidates rows already handed out.
func TestBatchRoundTripPreservesRows(t *testing.T) {
	schema, rows := intRows(10)
	it := NewBatchToRow(NewRowToBatch(NewSliceIter(schema, rows), 3))
	out, err := Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(rows) {
		t.Fatalf("round trip lost rows: %d of %d", len(out), len(rows))
	}
	for i := range out {
		if out[i] != rows[i] {
			t.Fatalf("row %d: adapter changed identity or order", i)
		}
	}
}

// TestVectorizedFilterProjectLimitMatchesRowMode drives the streaming
// operators over batches of several sizes and checks the output against
// batches of one, the row-at-a-time execution of the same tree.
func TestVectorizedFilterProjectLimitMatchesRowMode(t *testing.T) {
	out := model.NewSchema("", model.Column{Name: "v", Kind: model.KindInt})
	build := func(batch int) Iterator {
		schema, rows := intRows(100)
		f := NewFilter(NewRowToBatch(NewSliceIter(schema, rows), batch), mustExpr(t, "v > 20"), nil)
		p := NewProject(f, []sql.Expr{mustExpr(t, "v")}, out, nil)
		l := NewLimit(p, 30)
		return NewBatchToRow(l)
	}
	want, err := Collect(build(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 30 {
		t.Fatalf("row-mode baseline: %d rows, want 30", len(want))
	}
	for _, batch := range []int{2, 3, 7, 1024} {
		got, err := Collect(build(batch))
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if len(got) != len(want) {
			t.Fatalf("batch=%d: %d rows, want %d", batch, len(got), len(want))
		}
		for i := range got {
			if got[i].Tuple.Values[0].Int != want[i].Tuple.Values[0].Int {
				t.Fatalf("batch=%d row %d: got %d, want %d", batch, i,
					got[i].Tuple.Values[0].Int, want[i].Tuple.Values[0].Int)
			}
		}
	}
}

// cancelAfterIter produces rows and fires cancel after k of them,
// mid-batch. It deliberately ignores the query context itself, so the
// only thing that can stop the pipeline is the batch-boundary poll.
type cancelAfterIter struct {
	schema *model.Schema
	rows   []*Row
	k      int
	cancel context.CancelFunc
	pos    int
}

func (c *cancelAfterIter) Open() error { c.pos = 0; return nil }
func (c *cancelAfterIter) Next() (*Row, error) {
	if c.pos >= len(c.rows) {
		return nil, nil
	}
	r := c.rows[c.pos]
	c.pos++
	if c.pos == c.k {
		c.cancel()
	}
	return r, nil
}
func (c *cancelAfterIter) Close() error          { return nil }
func (c *cancelAfterIter) Schema() *model.Schema { return c.schema }

// TestMidBatchCancellationStopsWithinOneBatch is the regression test
// for the batch-mode cancellation cadence: converted operators poll
// once per batch, so a context cancelled mid-batch must abort the query
// no later than the next batch boundary — the in-flight batch may
// complete, but not one more.
func TestMidBatchCancellationStopsWithinOneBatch(t *testing.T) {
	const total, cancelAt, batch = 500, 10, 64
	schema, rows := intRows(total)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelAfterIter{schema: schema, rows: rows, k: cancelAt, cancel: cancel}
	f := NewFilter(NewRowToBatch(src, batch), mustExpr(t, "v > 0"), nil)
	it := NewBatchToRow(f)
	SetIterContext(it, NewQueryCtx(ctx, nil))

	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	delivered := 0
	var err error
	for {
		var r *Row
		r, err = it.Next()
		if r == nil || err != nil {
			break
		}
		delivered++
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (delivered %d rows)", err, delivered)
	}
	if delivered > batch {
		t.Fatalf("cancel at row %d leaked past one batch boundary: %d rows delivered (batch=%d)",
			cancelAt, delivered, batch)
	}
}

// TestBatchOfOneCancellationStopsWithinTickEvery is the batch-of-one
// counterpart of the test above: a MaxBatchSize 1 shaped chain polls
// through its rowToBatch leaf once per tickEvery rows, exactly as often
// as a per-row tick, so a mid-stream cancel stops it within tickEvery
// rows.
func TestBatchOfOneCancellationStopsWithinTickEvery(t *testing.T) {
	const total, cancelAt = 500, 10
	schema, rows := intRows(total)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelAfterIter{schema: schema, rows: rows, k: cancelAt, cancel: cancel}
	out := model.NewSchema("", model.Column{Name: "v", Kind: model.KindInt})
	it := NewBatchToRow(NewLimit(NewProject(NewFilter(NewRowToBatch(src, 1), mustExpr(t, "v > 0"), nil),
		[]sql.Expr{mustExpr(t, "v")}, out, nil), total))
	SetIterContext(it, NewQueryCtx(ctx, nil))
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	delivered := 0
	var err error
	for {
		var r *Row
		r, err = it.Next()
		if r == nil || err != nil {
			break
		}
		delivered++
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (delivered %d rows)", err, delivered)
	}
	if delivered > tickEvery {
		t.Fatalf("cancel at row %d leaked %d rows, more than one poll interval (%d)",
			cancelAt, delivered, tickEvery)
	}
}

// TestScanBatchGrowth pins the LIMIT sizing of a scan with BatchStart:
// batches of start rows doubling per batch up to BatchSize, restarting
// on every Open.
func TestScanBatchGrowth(t *testing.T) {
	f := newOpsFixture(t, 40, 0)
	scan := NewSeqScan(f.r, "r", false)
	scan.BatchSize, scan.BatchStart = 16, 3
	for run := 0; run < 2; run++ {
		if err := scan.Open(); err != nil {
			t.Fatal(err)
		}
		var sizes []int
		for {
			b, err := scan.NextBatch(nil)
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			sizes = append(sizes, b.Len())
			b.Release()
		}
		scan.Close()
		if fmt.Sprint(sizes) != "[3 6 12 16 3]" {
			t.Fatalf("run %d: batch sizes %v, want [3 6 12 16 3]", run, sizes)
		}
	}
}

// TestFilterAttachesSummariesToPassingRows checks the deferred summary
// fetch: over a non-propagating scan, a filter with AttachFrom gives
// exactly the rows that pass the same summaries and alias sets a
// propagating scan would have, in both execution modes.
func TestFilterAttachesSummariesToPassingRows(t *testing.T) {
	f := newOpsFixture(t, 30, 0)
	want, err := Collect(NewBatchToRow(NewFilter(NewSeqScan(f.r, "r", true), mustExpr(t, "r.a > 10 AND r.a < 25"), nil)))
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 4} {
		scan := NewSeqScan(f.r, "r", false)
		scan.BatchSize = batch
		filt := NewFilter(scan, mustExpr(t, "r.a > 10 AND r.a < 25"), nil)
		filt.AttachFrom, filt.AttachAlias = f.r, "r"
		got, err := Collect(NewBatchToRow(filt))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("batch=%d: %d rows, want %d", batch, len(got), len(want))
		}
		for i := range got {
			if got[i].Tuple.String() != want[i].Tuple.String() ||
				got[i].Tuple.Summaries.String() != want[i].Tuple.Summaries.String() ||
				got[i].SetFor("r").String() != want[i].SetFor("r").String() {
				t.Fatalf("batch=%d row %d: %s / %s, want %s / %s", batch, i,
					got[i].Tuple, got[i].Tuple.Summaries, want[i].Tuple, want[i].Tuple.Summaries)
			}
		}
	}
}

// TestScanTransientRowsRecycleSlab checks that a TransientRows scan
// carves every batch from the same slab, yields the same rows as a scan
// with fresh slabs, and clears the slab's row references when it pools
// the slab on Close.
func TestScanTransientRowsRecycleSlab(t *testing.T) {
	f := newOpsFixture(t, 40, 0)
	drain := func(scan *SeqScan, each func(b *Batch)) []string {
		if err := scan.Open(); err != nil {
			t.Fatal(err)
		}
		var got []string
		for {
			b, err := scan.NextBatch(nil)
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			for i := 0; i < b.Len(); i++ {
				got = append(got, b.Row(i).Tuple.String())
			}
			each(b)
			b.Release()
		}
		return got
	}
	fresh := NewSeqScan(f.r, "r", true)
	fresh.BatchSize = 16
	want := drain(fresh, func(*Batch) {})
	fresh.Close()

	scan := NewSeqScan(f.r, "r", true)
	scan.BatchSize, scan.TransientRows = 16, true
	var first *Row
	got := drain(scan, func(b *Batch) {
		if first == nil {
			first = b.Row(0)
		} else if b.Row(0) != first {
			t.Fatal("TransientRows batch not carved from the recycled slab")
		}
	})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recycled rows differ from fresh rows:\n got %v\nwant %v", got, want)
	}
	slab := *scan.reused
	scan.Close()
	if scan.reused != nil {
		t.Fatal("Close kept the slab")
	}
	for i := range slab {
		if slab[i].row.Tuple != nil || slab[i].row.AliasSets != nil ||
			slab[i].tuple.Values != nil || slab[i].tuple.Summaries != nil {
			t.Fatalf("pooled slab still references row %d", i)
		}
	}
}

// TestBindBatchPredMatchesRowPredicate holds the batch predicate
// compiler to BindPred: over rows mixing integers, floats, texts and
// NULLs, each predicate keeps exactly the rows BindPred accepts — from
// a dense batch and through an existing selection — and fails with
// BindPred's error when a row cannot be compared. When two conjuncts
// fail on different rows, both modes fail but may name different
// conjuncts' errors (the batch finishes one conjunct before the next).
func TestBindBatchPredMatchesRowPredicate(t *testing.T) {
	schema := model.NewSchema("r",
		model.Column{Name: "a", Kind: model.KindInt},
		model.Column{Name: "f", Kind: model.KindFloat},
		model.Column{Name: "name", Kind: model.KindText})
	ints := []model.Value{model.Null(), model.NewInt(-3), model.NewInt(5), model.NewInt(9007199254740993)}
	floats := []model.Value{model.Null(), model.NewFloat(2.5), model.NewFloat(5)}
	names := []model.Value{model.Null(), model.NewText("Swan"), model.NewText("goose")}
	var rows []*Row
	for _, a := range ints {
		for _, fv := range floats {
			for _, n := range names {
				rows = append(rows, &Row{Tuple: &model.Tuple{Values: []model.Value{a, fv, n}}})
			}
		}
	}
	preds := []string{
		"a > 0", "0 < a", "a >= 5", "5 >= a", "a = 9007199254740992", "a <> 9007199254740993",
		"a = NULL", "NULL <> a", "f > 2", "2 > f", "a = 5.0", "5.0 = a", "a < f", "f <= 2.5",
		"name = 'Swan'", "'Swan' < name", "name <> 'goose'",
		"a > 0 AND name = 'Swan'", "a > 0 AND f > 2 AND name <> 'Swan'",
		"a > 0 OR name = 'Swan'", "NOT (a > 0) AND f = 5", "name LIKE 'S%'",
		"a > 'x'", "'x' < a", "a > 100 AND name > 3",
		// Conjunct one fails only on a = 5 rows; conjunct two fails on an
		// earlier a = -3 row that conjunct one keeps.
		"(a < 0 OR a > 'x') AND name > 3",
	}
	eitherErr := map[string]bool{"(a < 0 OR a > 'x') AND name > 3": true}
	ev := &Evaluator{Schema: schema}
	for _, src := range preds {
		e := mustExpr(t, src)
		rowPred, batchPred := ev.BindPred(e), ev.BindBatchPred(e)
		for _, start := range [][]int32{nil, {1, 2, 4, 7, 8, 13, 20, 30, 35}} {
			var want []*Row
			var wantErr error
			live := start
			if live == nil {
				for i := range rows {
					live = append(live, int32(i))
				}
			}
			for _, i := range live {
				ok, err := rowPred(rows[i])
				if err != nil {
					wantErr = err
					break
				}
				if ok {
					want = append(want, rows[i])
				}
			}
			b := GetBatch(len(rows))
			for _, r := range rows {
				b.Append(r)
			}
			if start != nil {
				b.sel = append(b.selStorage(len(start)), start...)
			}
			err := batchPred(b)
			switch {
			case wantErr != nil:
				if err == nil || (err.Error() != wantErr.Error() && !eitherErr[src]) {
					t.Fatalf("%s: batch error %v, row error %q", src, err, wantErr)
				}
			case err != nil:
				t.Fatalf("%s: batch error %q, row mode none", src, err)
			default:
				var got []*Row
				for i := 0; i < b.Len(); i++ {
					got = append(got, b.Row(i))
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s (selection %v): batch keeps %d rows, row mode %d", src, start, len(got), len(want))
				}
			}
			b.Release()
		}
	}
}
