package exec

import (
	"sync"

	"repro/internal/model"
)

// This file is the batch protocol of the streaming operators: the Batch
// row-vector container, the BatchOperator interface, and the two shims
// between it and the row-at-a-time Volcano operators. Scans, filters
// (σ, S and F), projections (π and the summary-effect projection) and
// LIMIT produce batches only. The optimizer's vectorize pass marks
// contiguous streaming segments (scan → filter → project chains) with
// a batch size; everything else — unmarked streaming operators, and
// every operator under MaxBatchSize 1 — runs as batches of one. Sorts,
// joins, aggregation, Distinct, the parallel Gather exchange and result
// collection keep speaking rows and read a batch operator through
// batchToRow; a batch operator reads a row operator through rowToBatch.

// DefaultBatchSize is the row capacity of one exchange batch: large
// enough to amortize per-call overhead (interface dispatch, recoverOp
// defers, cancellation polls) to noise, small enough that a pipeline's
// working set of in-flight batches stays cache-friendly.
const DefaultBatchSize = 1024

// MaxBatchSize bounds the configurable batch capacity so a mistuned
// knob cannot make every scan allocate gigantic row vectors.
const MaxBatchSize = 65536

// batchGrowth sizes a scan's successive batches: next rows first (when
// next > 0), doubling per batch until it reaches the scan's capacity.
type batchGrowth struct{ next int }

// size returns the row count of the next batch for a scan of the given
// capacity (<= 1: batches of one).
func (g *batchGrowth) size(capacity int) int {
	capacity = max(capacity, 1)
	if g.next <= 0 || g.next >= capacity {
		return capacity
	}
	n := g.next
	g.next *= 2
	return n
}

// Batch is a row vector exchanged between batched operators, with an
// optional selection vector: filters qualify rows by compacting sel
// instead of copying or moving them, so a selective predicate costs
// one int32 write per surviving row.
//
// Ownership: the consumer owns a batch returned by NextBatch and may
// mutate its selection or replace its contents in place; the producer
// must not touch it again. The *Row pointers inside are ordinary
// pipeline rows owned by whoever received them (see the Iterator
// ownership rule) and stay valid after the container is released — only
// the container recycles through the pool, never row storage.
type Batch struct {
	rows []*Row
	// sel, when non-nil, lists the live row indices in ascending order;
	// nil means rows[0:len(rows)] are all live.
	sel []int32
	// selStore is the retained backing array handed out by selStorage,
	// so filtering a pooled batch allocates no selection vector in
	// steady state.
	selStore []int32
	// used is the longest rows has been since the container was last
	// cleared: the prefix that may hold row references after LIMIT or
	// a transformation shortened rows.
	used int
	// operands is compareBatch's scratch: two value pointers per live
	// row, kept with the pooled container and cleared on Release.
	operands []*model.Value
}

// batchPool recycles batch containers (the rows and sel slices). Row
// storage is never pooled: rows escape downstream with unbounded
// lifetime, so recycling their backing arrays would corrupt retained
// results.
var batchPool = sync.Pool{New: func() any { return &Batch{} }}

// GetBatch returns an empty batch whose container holds at least
// capacity rows without growing.
func GetBatch(capacity int) *Batch {
	if capacity <= 0 {
		capacity = DefaultBatchSize
	}
	b := batchPool.Get().(*Batch)
	if cap(b.rows) < capacity {
		b.rows = make([]*Row, 0, capacity)
	} else {
		b.rows = b.rows[:0]
	}
	b.sel = nil
	return b
}

// Release clears the container and returns it to the pool. The caller
// must not use the batch afterwards; rows previously handed out remain
// valid. Only the used prefix is cleared, so a large pooled container
// carrying a batch of one costs one store, not its capacity.
func (b *Batch) Release() {
	if b == nil {
		return
	}
	clear(b.rows[:b.used]) // the pool retains no rows
	clear(b.operands)
	b.rows = b.rows[:0]
	b.operands = b.operands[:0]
	b.sel = nil
	b.used = 0
	batchPool.Put(b)
}

// Len reports the number of live rows.
func (b *Batch) Len() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return len(b.rows)
}

// Row returns the i-th live row (through the selection vector when one
// is set).
func (b *Batch) Row(i int) *Row {
	if b.sel != nil {
		return b.rows[b.sel[i]]
	}
	return b.rows[i]
}

// Append adds a row. Producers fill batches densely (no selection);
// appending to a batch with a selection vector is a programming error.
func (b *Batch) Append(r *Row) {
	if b.sel != nil {
		panic("exec: Append on a batch with a selection vector")
	}
	b.rows = append(b.rows, r)
	b.used = max(b.used, len(b.rows))
}

// selStorage returns an empty selection vector with capacity for n
// entries, reusing the batch's retained backing array.
func (b *Batch) selStorage(n int) []int32 {
	if cap(b.selStore) < n {
		b.selStore = make([]int32, 0, n)
	}
	return b.selStore[:0]
}

// operandScratch returns two empty vectors of n value pointers each,
// reusing the batch's backing array.
func (b *Batch) operandScratch(n int) (l, r []*model.Value) {
	if cap(b.operands) < 2*n {
		b.operands = make([]*model.Value, 2*n)
	}
	b.operands = b.operands[:max(len(b.operands), 2*n)]
	return b.operands[:n:n], b.operands[n : 2*n : 2*n]
}

// liveSel returns the live physical row indices, first installing the
// identity selection when the batch has none, so a filter can compact
// the result in place.
func (b *Batch) liveSel() []int32 {
	if b.sel == nil {
		sel := b.selStorage(len(b.rows))
		for i := range b.rows {
			sel = append(sel, int32(i))
		}
		b.sel = sel
	}
	return b.sel
}

// Truncate keeps only the first n live rows (LIMIT).
func (b *Batch) Truncate(n int) {
	if n >= b.Len() {
		return
	}
	if b.sel != nil {
		b.sel = b.sel[:n]
		return
	}
	b.rows = b.rows[:n]
}

// transformBatch replaces every live row with fn(row), compacting the
// results densely into the same container and consuming any selection
// vector. Safe in place: selection indices ascend, so the write cursor
// never passes the read position.
func transformBatch(b *Batch, fn func(*Row) *Row) {
	if b.sel == nil {
		for i, row := range b.rows {
			b.rows[i] = fn(row)
		}
		return
	}
	out := 0
	for _, phys := range b.sel {
		b.rows[out] = fn(b.rows[phys])
		out++
	}
	b.rows = b.rows[:out]
	b.sel = nil
}

// BatchOperator is the batch protocol: Open, a stream of NextBatch
// calls returning a nil batch at end-of-stream, and Close. Batch
// operators poll cancellation once per tickEvery rows through their
// leaf (a scan or rowToBatch), so a cancelled query stops within one
// batch boundary, or within tickEvery rows for small batches.
type BatchOperator interface {
	Operator
	NextBatch(qc *QueryCtx) (*Batch, error)
}

// rowToBatch adapts a row iterator to the batch protocol: each
// NextBatch drains up to size rows. It is how a batch operator reads a
// row-only input — an unmarked projection or LIMIT above a sort, join
// or aggregate, at one row per batch.
type rowToBatch struct {
	input Iterator
	size  int
	qc    *QueryCtx
}

// NewRowToBatch bridges a row iterator into a batch producer filling
// batches of up to size rows (<= 1: batches of one).
func NewRowToBatch(it Iterator, size int) BatchOperator {
	return &rowToBatch{input: it, size: max(size, 1)}
}

// SetContext installs the per-query lifecycle and forwards it below.
func (a *rowToBatch) SetContext(qc *QueryCtx) {
	a.qc = qc
	SetIterContext(a.input, qc)
}

// Open opens the input.
func (a *rowToBatch) Open() error { return a.input.Open() }

// NextBatch drains up to size rows from the input.
func (a *rowToBatch) NextBatch(qc *QueryCtx) (*Batch, error) {
	if err := qc.tickRows(a.size); err != nil {
		return nil, err
	}
	b := GetBatch(a.size)
	for b.Len() < a.size {
		row, err := a.input.Next()
		if err != nil {
			b.Release()
			return nil, err
		}
		if row == nil {
			break
		}
		b.Append(row)
	}
	if b.Len() == 0 {
		b.Release()
		return nil, nil
	}
	return b, nil
}

// Close closes the input.
func (a *rowToBatch) Close() error { return a.input.Close() }

// Schema returns the input schema.
func (a *rowToBatch) Schema() *model.Schema { return a.input.Schema() }

// batchToRow adapts a batch operator to the row protocol — how
// row-at-a-time consumers (sorts, joins, aggregation, Distinct, Gather
// workers, result collection) read a streaming segment. It
// deliberately does not tick the query context per row: the producers
// below poll per batch, and the consumers above keep their own per-row
// ticks.
type batchToRow struct {
	input BatchOperator
	qc    *QueryCtx

	cur *Batch
	pos int
}

// NewBatchToRow caps a batch operator with a row interface.
func NewBatchToRow(bo BatchOperator) Iterator {
	return &batchToRow{input: bo}
}

// SetContext installs the per-query lifecycle and forwards it below.
func (a *batchToRow) SetContext(qc *QueryCtx) {
	a.qc = qc
	SetIterContext(a.input, qc)
}

// Open opens the segment.
func (a *batchToRow) Open() error {
	a.drop()
	return a.input.Open()
}

// Next hands out the current batch's rows one at a time, fetching the
// next batch when it runs dry.
func (a *batchToRow) Next() (*Row, error) {
	for {
		if a.cur != nil {
			if a.pos < a.cur.Len() {
				row := a.cur.Row(a.pos)
				a.pos++
				return row, nil
			}
			a.drop()
		}
		b, err := a.input.NextBatch(a.qc)
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		a.cur, a.pos = b, 0
	}
}

// drop releases the in-flight batch container (rows already handed out
// stay valid).
func (a *batchToRow) drop() {
	if a.cur != nil {
		a.cur.Release()
		a.cur = nil
	}
	a.pos = 0
}

// Close closes the segment.
func (a *batchToRow) Close() error {
	a.drop()
	return a.input.Close()
}

// Schema returns the segment schema.
func (a *batchToRow) Schema() *model.Schema { return a.input.Schema() }
