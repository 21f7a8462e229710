package exec

import (
	"sync"

	"repro/internal/model"
)

// This file is the vectorized (batch-at-a-time) execution layer: the
// Batch row-vector container, the BatchOperator protocol, and the
// adapter shims that let batched pipeline segments coexist with the
// row-at-a-time Volcano operators. The optimizer's vectorize pass marks
// contiguous streaming segments (scan → filter → project chains); the
// compiler lowers marked operators with a batch size and caps each
// segment with a batchToRow shim, so everything above — sorts, joins,
// aggregation, the parallel Gather exchange — keeps speaking rows and
// stays byte-identical. With MaxBatchSize <= 1 no segment is marked and
// the executor runs exactly as before.

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
// capacity (<= 1: DefaultBatchSize).
func (g *batchGrowth) size(capacity int) int {
	if capacity <= 1 {
		capacity = DefaultBatchSize
	}
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
// valid.
func (b *Batch) Release() {
	if b == nil {
		return
	}
	rows := b.rows[:cap(b.rows)]
	for i := range rows {
		rows[i] = nil // drop row references so the pool retains no rows
	}
	b.rows = b.rows[:0]
	b.sel = nil
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
}

// Reset empties the batch (dropping any selection) so a transforming
// operator can refill the same container with its outputs.
func (b *Batch) Reset() {
	b.rows = b.rows[:0]
	b.sel = nil
}

// selStorage returns an empty selection vector with capacity for n
// entries, reusing the batch's retained backing array.
func (b *Batch) selStorage(n int) []int32 {
	if cap(b.selStore) < n {
		b.selStore = make([]int32, 0, n)
	}
	return b.selStore[:0]
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

// BatchOperator extends the Volcano protocol with batch-at-a-time
// production. Open, Close, and Schema are shared with the row
// interface; during one execution an operator is driven through exactly
// one of Next or NextBatch, never both. A nil batch means end-of-stream
// (mirroring the nil row). Converted operators poll cancellation once
// per batch instead of per row, so a cancelled query stops within one
// batch boundary.
type BatchOperator interface {
	Iterator
	NextBatch(qc *QueryCtx) (*Batch, error)
}

// batchNative reports whether it produces batches natively in this
// execution — i.e. the compiler lowered it with a batch size — reaching
// through the stats decorator, whose NextBatch delegates. The static
// interface check is not enough: every converted operator has a
// NextBatch method whether or not this plan runs it in batch mode.
func batchNative(it Iterator) bool {
	switch op := it.(type) {
	case *statsIter:
		return batchNative(op.child)
	case *SeqScan:
		return op.BatchSize > 1
	case *SummaryIndexScan:
		return op.BatchSize > 1
	case *PredicateFilter:
		return op.BatchSize > 1
	case *SummaryFilter:
		return op.BatchSize > 1
	case *SummaryEffectProject:
		return op.BatchSize > 1
	case *Project:
		return op.BatchSize > 1
	case *Limit:
		return op.BatchSize > 1
	case *rowToBatch:
		return true
	}
	return false
}

// ToBatch returns an operator's batch interface: a batch-native input
// is used directly, anything else is bridged through a rowToBatch shim
// filling batches of up to size rows. Callers manage the underlying
// iterator's Open/Close themselves (the shims forward but converted
// operators already drive their input's lifecycle).
func ToBatch(it Iterator, size int) BatchOperator {
	if batchNative(it) {
		if bo, ok := it.(BatchOperator); ok {
			return bo
		}
	}
	return &rowToBatch{input: it, size: size}
}

// rowToBatch adapts a row iterator to the batch protocol (the upward
// shim): each NextBatch drains up to size rows. The compiler's marked
// segments are contiguous so they never need it at runtime, but
// hand-built operator trees and tests do, and it keeps ToBatch total.
type rowToBatch struct {
	input Iterator
	size  int
	qc    *QueryCtx
}

// NewRowToBatch bridges a row iterator into a batch producer.
func NewRowToBatch(it Iterator, size int) BatchOperator {
	if size <= 1 {
		size = DefaultBatchSize
	}
	return &rowToBatch{input: it, size: size}
}

// SetContext installs the per-query lifecycle and forwards it below.
func (a *rowToBatch) SetContext(qc *QueryCtx) {
	a.qc = qc
	SetIterContext(a.input, qc)
}

// Open opens the input.
func (a *rowToBatch) Open() error { return a.input.Open() }

// Next forwards the row protocol (the shim is also a plain iterator).
func (a *rowToBatch) Next() (*Row, error) { return a.input.Next() }

// NextBatch drains up to size rows from the input. Cancellation is
// polled once per batch.
func (a *rowToBatch) NextBatch(qc *QueryCtx) (*Batch, error) {
	if err := qc.check(); err != nil {
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

// batchToRow adapts a batched pipeline segment back to the row
// protocol — the shim the compiler places at each marked segment's top
// so row-at-a-time consumers (sorts, joins, aggregation, Gather
// workers, result collection) are oblivious to the batching below. It
// deliberately does not tick the query context per row: the producers
// below poll once per batch, which bounds cancellation latency to one
// batch, and the consumers above keep their own per-row ticks.
type batchToRow struct {
	input Iterator
	bo    BatchOperator
	qc    *QueryCtx

	cur *Batch
	pos int
}

// NewBatchToRow caps a batch-producing segment with a row interface.
// An input that is not batch-native in this execution is returned
// unchanged (defensive identity): the static interface check is not
// enough, because converted operators carry NextBatch methods even when
// lowered in row mode.
func NewBatchToRow(it Iterator) Iterator {
	if !batchNative(it) {
		return it
	}
	bo, ok := it.(BatchOperator)
	if !ok {
		return it
	}
	return &batchToRow{input: it, bo: bo}
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
		b, err := a.bo.NextBatch(a.qc)
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
