package exec

import (
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/heap"
	"repro/internal/model"
)

// PartitionSpec selects one slice of a partitioned parallel scan:
// partition Index of Of equal page-range shares. The zero value (Of 0
// or 1) means "the whole table".
type PartitionSpec struct {
	Index int
	Of    int
}

// SeqScan reads a table in physical order, optionally attaching each
// tuple's summary set from R_SummaryStorage (summary propagation).
// With a PartitionSpec set it reads only its page-range share, so Of
// scans with Index 0..Of-1 together cover the table exactly once, in
// partition order equal to the serial scan order.
type SeqScan struct {
	Table     *catalog.Table
	Alias     string
	Propagate bool
	Part      PartitionSpec
	// BatchSize is the row capacity of a batch (<= 1: batches of one).
	BatchSize int
	// BatchStart > 0 makes the first batch that many rows, doubling per
	// batch up to BatchSize.
	BatchStart int
	// TransientRows promises that no row of a batch is used after the
	// next NextBatch call or Close (a batched Project above copies what
	// it keeps), so every batch is carved from one recycled slab, pooled
	// across scans.
	TransientRows bool

	schema *model.Schema
	cursor *heap.Cursor[[]model.Value]
	qc     *QueryCtx
	grow   batchGrowth
	reused *[]scanSlot
}

// scanSlot is the Row and Tuple storage of one batched scan row.
type scanSlot struct {
	row   Row
	tuple model.Tuple
}

// slabPool holds cleared TransientRows slabs.
var slabPool sync.Pool

// NewSeqScan builds a sequential scan.
func NewSeqScan(t *catalog.Table, alias string, propagate bool) *SeqScan {
	if alias == "" {
		alias = t.Name
	}
	return &SeqScan{Table: t, Alias: alias, Propagate: propagate,
		schema: t.Schema.Rename(alias)}
}

// SetContext installs the per-query lifecycle.
func (s *SeqScan) SetContext(qc *QueryCtx) { s.qc = qc }

// Open positions the scan at the first tuple of its partition.
func (s *SeqScan) Open() (err error) {
	defer recoverOp("SeqScan", &err)
	if err := s.qc.check(); err != nil {
		return err
	}
	if s.Part.Of > 1 {
		pages := s.Table.Data.Pages()
		start := pages * s.Part.Index / s.Part.Of
		end := pages * (s.Part.Index + 1) / s.Part.Of
		s.cursor = s.Table.Data.RangeCursor(start, end)
	} else {
		s.cursor = s.Table.Data.Cursor()
	}
	s.grow = batchGrowth{next: s.BatchStart}
	return nil
}

// NextBatch fills a row vector from the cursor, one page run at a time.
// Row and Tuple storage is carved from one per-batch slab (one
// allocation per batch instead of two per row, and none in steady state
// with TransientRows), and the per-alias summary map is skipped
// entirely for rows without summaries — SetFor falls back to
// Tuple.Summaries, which is observationally identical. Cancellation is
// polled per tickEvery rows; the deferred panic trap is paid once per
// batch.
func (s *SeqScan) NextBatch(qc *QueryCtx) (b *Batch, err error) {
	defer recoverOp("SeqScan", &err)
	size := s.grow.size(s.BatchSize)
	if err := qc.tickRows(size); err != nil {
		return nil, err
	}
	b = GetBatch(size)
	var slab []scanSlot
	n := s.cursor.Fill(size, func(_ heap.RID, oid int64, values []model.Value) {
		if slab == nil {
			// Carved lazily so the terminal empty batch costs nothing.
			slab = s.slab(size)
		}
		// Only the fields a scan sets: a recycled slot's others are
		// still zero, since Propagate is fixed for the scan's lifetime.
		sl := &slab[b.Len()]
		sl.tuple.OID, sl.tuple.Values = oid, values
		sl.row.Tuple = &sl.tuple
		if s.Propagate {
			sl.tuple.Summaries = s.Table.GetSummaries(oid)
			sl.row.AliasSets = aliasSet(s.Alias, sl.tuple.Summaries)
		}
		b.Append(&sl.row)
	})
	if n == 0 {
		b.Release()
		return nil, nil
	}
	return b, nil
}

// slab returns storage for a batch of size rows: a fresh slab, or with
// TransientRows the scan's recycled one, whose previous batch is dead
// by contract.
func (s *SeqScan) slab(size int) []scanSlot {
	if !s.TransientRows {
		return make([]scanSlot, size)
	}
	if s.reused == nil {
		p, ok := slabPool.Get().(*[]scanSlot)
		if !ok || len(*p) < s.BatchSize {
			sl := make([]scanSlot, s.BatchSize)
			p = &sl
		}
		s.reused = p
	}
	return (*s.reused)[:size]
}

// Close releases the cursor (unpinning its buffer-pool frame when the
// scan stopped mid-page) and pools a cleared TransientRows slab.
func (s *SeqScan) Close() error {
	if s.reused != nil {
		clear(*s.reused)
		slabPool.Put(s.reused)
		s.reused = nil
	}
	if s.cursor != nil {
		s.cursor.Close()
		s.cursor = nil
	}
	return nil
}

// Schema returns the scan's output schema (table columns under alias).
func (s *SeqScan) Schema() *model.Schema { return s.schema }

func aliasSet(alias string, set model.SummarySet) map[string]model.SummarySet {
	return map[string]model.SummarySet{strings.ToLower(alias): set}
}

// fetchRow loads a base tuple at a known heap location and wraps it as a
// pipeline row; shared by the index scans.
func fetchRow(t *catalog.Table, alias string, rid heap.RID, propagate bool) (*Row, bool) {
	tu, ok := t.GetAt(rid)
	if !ok {
		return nil, false
	}
	if propagate {
		tu.Summaries = t.GetSummaries(tu.OID)
	}
	return &Row{Tuple: tu, AliasSets: aliasSet(alias, tu.Summaries)}, true
}
