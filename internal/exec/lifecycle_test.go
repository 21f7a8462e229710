package exec

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
	"repro/internal/sql"
)

// intRows builds n single-column rows with descending values (so sorts
// actually move data).
func intRows(n int) (*model.Schema, []*Row) {
	schema := model.NewSchema("t", model.Column{Name: "v", Kind: model.KindInt})
	rows := make([]*Row, n)
	for i := range rows {
		rows[i] = &Row{Tuple: model.NewTuple(int64(i), model.NewInt(int64(n-i)))}
	}
	return schema, rows
}

// sortRunFiles counts leftover spill files in the temp directory.
func sortRunFiles(t *testing.T) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(os.TempDir(), "insightnotes-sortrun-*"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

func TestBudgetChargeIsAtomic(t *testing.T) {
	b := NewBudget(10, 1000, 0)
	if err := b.ChargeBuffered("X", 8, 100); err != nil {
		t.Fatal(err)
	}
	// Fails on rows; must not commit the byte side either.
	err := b.ChargeBuffered("X", 5, 100)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Op != "X" || be.Resource != "buffered rows" {
		t.Fatalf("unexpected budget error detail: %+v", be)
	}
	if got := b.BufferedRows(); got != 8 {
		t.Fatalf("failed charge committed rows: %d", got)
	}
	b.ReleaseBuffered(8, 100)
	if got := b.BufferedRows(); got != 0 {
		t.Fatalf("release did not zero rows: %d", got)
	}
	// nil budget is unlimited.
	var nb *Budget
	if err := nb.ChargeBuffered("X", 1<<40, 1<<40); err != nil {
		t.Fatalf("nil budget should be unlimited: %v", err)
	}
}

func TestCancellationStopsIteration(t *testing.T) {
	schema, rows := intRows(500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the first poll must observe it
	it := NewSliceIter(schema, rows)
	SetIterContext(it, NewQueryCtx(ctx, nil))
	_, err := Collect(it)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestCancellationMidSort(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // count only this test's sort runs
	schema, rows := intRows(200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := sortRunFiles(t)
	s := NewExternalSort(NewSliceIter(schema, rows), []SortKey{{Expr: mustExpr(t, "v")}}, 16, nil)
	SetIterContext(s, NewQueryCtx(ctx, nil))
	_, err := Collect(s)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if after := sortRunFiles(t); after != before {
		t.Fatalf("cancelled sort leaked temp files: %d -> %d", before, after)
	}
}

// panicIter panics on Next to exercise operator panic isolation.
type panicIter struct {
	schema *model.Schema
}

func (p *panicIter) Open() error             { return nil }
func (p *panicIter) Next() (*Row, error)     { panic("storage corruption") }
func (p *panicIter) Close() error            { return nil }
func (p *panicIter) Schema() *model.Schema   { return p.schema }
func (p *panicIter) SetContext(qc *QueryCtx) {}

func TestOperatorPanicBecomesOpError(t *testing.T) {
	schema := model.NewSchema("t", model.Column{Name: "v", Kind: model.KindInt})
	f := NewBatchToRow(NewFilter(NewRowToBatch(&panicIter{schema: schema}, 1), mustExpr(t, "v > 0"), nil))
	SetIterContext(f, NewQueryCtx(context.Background(), nil))
	_, err := Collect(f)
	var oe *OpError
	if !errors.As(err, &oe) {
		t.Fatalf("want *OpError, got %T: %v", err, err)
	}
	if oe.Op != "Filter" {
		t.Fatalf("want innermost guarded operator name Filter, got %q", oe.Op)
	}
	if len(oe.Stack) == 0 {
		t.Fatal("OpError should carry the panic stack")
	}
}

func TestSortDegradesToSpillUnderBudget(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // count only this test's sort runs
	schema, rows := intRows(300)
	before := sortRunFiles(t)
	// Room for ~40 rows in memory, ample spill.
	budget := NewBudget(40, 0, 1<<30)
	s := NewSort(NewSliceIter(schema, rows), []SortKey{{Expr: mustExpr(t, "v")}}, nil)
	SetIterContext(s, NewQueryCtx(context.Background(), budget))
	out, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Spilled() {
		t.Fatal("sort should have degraded to external runs under budget pressure")
	}
	if len(out) != len(rows) {
		t.Fatalf("row count: want %d, got %d", len(rows), len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].Tuple.Values[0].Int > out[i].Tuple.Values[0].Int {
			t.Fatalf("output not sorted at %d", i)
		}
	}
	if after := sortRunFiles(t); after != before {
		t.Fatalf("sort leaked temp files: %d -> %d", before, after)
	}
	if budget.BufferedRows() != 0 || budget.SpillBytes() != 0 {
		t.Fatalf("budget not fully released: rows=%d spill=%d",
			budget.BufferedRows(), budget.SpillBytes())
	}
}

func TestSortSpillBudgetIsHardLimit(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // count only this test's sort runs
	schema, rows := intRows(500)
	before := sortRunFiles(t)
	// Tiny memory budget forces spilling, and the spill allowance is too
	// small for even one run: the temp-file budget is a hard limit.
	budget := NewBudget(10, 0, 16)
	s := NewSort(NewSliceIter(schema, rows), []SortKey{{Expr: mustExpr(t, "v")}}, nil)
	SetIterContext(s, NewQueryCtx(context.Background(), budget))
	_, err := Collect(s)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "spill bytes" {
		t.Fatalf("unexpected budget error detail: %+v", be)
	}
	if after := sortRunFiles(t); after != before {
		t.Fatalf("failed sort leaked temp files: %d -> %d", before, after)
	}
	if budget.BufferedRows() != 0 || budget.SpillBytes() != 0 {
		t.Fatalf("budget not released after failure: rows=%d spill=%d",
			budget.BufferedRows(), budget.SpillBytes())
	}
}

// errAfterIter yields n rows then fails — exercises Sort's mid-Open
// error path after runs have already been flushed.
type errAfterIter struct {
	schema *model.Schema
	n, pos int
}

func (e *errAfterIter) Open() error { e.pos = 0; return nil }
func (e *errAfterIter) Next() (*Row, error) {
	if e.pos >= e.n {
		return nil, fmt.Errorf("simulated input failure after %d rows", e.n)
	}
	e.pos++
	return &Row{Tuple: model.NewTuple(int64(e.pos), model.NewInt(int64(-e.pos)))}, nil
}
func (e *errAfterIter) Close() error          { return nil }
func (e *errAfterIter) Schema() *model.Schema { return e.schema }

func TestSortMidOpenFailureRemovesRuns(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // count only this test's sort runs
	schema := model.NewSchema("t", model.Column{Name: "v", Kind: model.KindInt})
	before := sortRunFiles(t)
	s := NewExternalSort(&errAfterIter{schema: schema, n: 100}, // several 8-row runs, then error
		[]SortKey{{Expr: mustExpr(t, "v")}}, 8, nil)
	SetIterContext(s, NewQueryCtx(context.Background(), nil))
	_, err := Collect(s)
	if err == nil {
		t.Fatal("want input failure, got nil")
	}
	if after := sortRunFiles(t); after != before {
		t.Fatalf("mid-Open failure leaked temp files: %d -> %d", before, after)
	}
}

func TestHashJoinFailsFastOverBudget(t *testing.T) {
	schema, rows := intRows(100)
	j := NewHashJoin(
		NewSliceIter(schema, rows), NewSliceIter(schema, rows),
		mustExpr(t, "v"), mustExpr(t, "v"), nil, false, nil)
	budget := NewBudget(10, 0, 0) // build side is 100 rows
	SetIterContext(j, NewQueryCtx(context.Background(), budget))
	_, err := Collect(j)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Op != "HashJoin" {
		t.Fatalf("unexpected budget error detail: %+v", be)
	}
	if budget.BufferedRows() != 0 {
		t.Fatalf("budget not released after failed open: %d", budget.BufferedRows())
	}
}

func TestDistinctAndGroupByRespectBudget(t *testing.T) {
	schema, rows := intRows(100)
	d := NewDistinct(NewSliceIter(schema, rows), nil)
	SetIterContext(d, NewQueryCtx(context.Background(), NewBudget(10, 0, 0)))
	if _, err := Collect(d); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Distinct: want ErrBudgetExceeded, got %v", err)
	}
	g := NewGroupBy(NewSliceIter(schema, rows),
		[]sql.Expr{mustExpr(t, "v")},
		[]AggSpec{{Func: "count", Star: true, Name: "n"}}, nil)
	SetIterContext(g, NewQueryCtx(context.Background(), NewBudget(10, 0, 0)))
	if _, err := Collect(g); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("GroupBy: want ErrBudgetExceeded, got %v", err)
	}
}
