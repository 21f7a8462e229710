package exec

import (
	"strings"

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
	// BatchSize > 1 means the compiler drives this scan through
	// NextBatch; Next() is unaffected either way.
	BatchSize int
	// BatchStart > 0 makes the first batch that many rows, doubling per
	// batch up to BatchSize.
	BatchStart int

	schema *model.Schema
	cursor *heap.Cursor[[]model.Value]
	qc     *QueryCtx
	grow   batchGrowth
}

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

// Next returns the next tuple.
func (s *SeqScan) Next() (row *Row, err error) {
	defer recoverOp("SeqScan", &err)
	if err := s.qc.tick(); err != nil {
		return nil, err
	}
	_, oid, values, ok := s.cursor.Next()
	if !ok {
		return nil, nil
	}
	t := &model.Tuple{OID: oid, Values: values}
	if s.Propagate {
		t.Summaries = s.Table.GetSummaries(oid)
	}
	return &Row{Tuple: t, AliasSets: aliasSet(s.Alias, t.Summaries)}, nil
}

// NextBatch fills a row vector from the cursor. Row and Tuple storage
// is carved from two per-batch slabs (two allocations per batch instead
// of two per row), and the per-alias summary map is skipped entirely
// for rows without summaries — SetFor falls back to Tuple.Summaries,
// which is observationally identical. Cancellation is polled once per
// batch; the deferred panic trap is likewise paid once per batch.
func (s *SeqScan) NextBatch(qc *QueryCtx) (b *Batch, err error) {
	defer recoverOp("SeqScan", &err)
	if err := qc.check(); err != nil {
		return nil, err
	}
	size := s.grow.size(s.BatchSize)
	b = GetBatch(size)
	var rows []Row
	var tuples []model.Tuple
	n := 0
	for n < size {
		_, oid, values, ok := s.cursor.Next()
		if !ok {
			break
		}
		if rows == nil {
			// Lazily carve the slabs so the terminal empty batch costs
			// nothing.
			rows = make([]Row, size)
			tuples = make([]model.Tuple, size)
		}
		t := &tuples[n]
		t.OID, t.Values = oid, values
		r := &rows[n]
		r.Tuple = t
		if s.Propagate {
			t.Summaries = s.Table.GetSummaries(oid)
			r.AliasSets = aliasSet(s.Alias, t.Summaries)
		}
		b.Append(r)
		n++
	}
	if n == 0 {
		b.Release()
		return nil, nil
	}
	return b, nil
}

// Close releases the cursor (unpinning its buffer-pool frame when the
// scan stopped mid-page).
func (s *SeqScan) Close() error {
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
