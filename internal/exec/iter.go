package exec

import "repro/internal/model"

// Operator is the lifecycle every physical operator shares. An
// operator produces its output through exactly one of two protocols:
// rows (Iterator) or row vectors (BatchOperator).
type Operator interface {
	Open() error
	Close() error
	Schema() *model.Schema
}

// Iterator is the Volcano row protocol: Open, a stream of Next calls
// returning (nil, nil) at end-of-stream, and Close.
//
// Ownership rule: a row returned by Next (or inside a Batch returned by
// NextBatch) belongs to the caller and stays valid indefinitely — the
// producer never writes to it again, even across Close. Producers may
// therefore carve row storage from amortizing slabs (SeqScan batches,
// Project's output slab), but must hand each slot out exactly once.
// Rows are shared structurally up the pipeline (a filter forwards its
// input's rows; joins point into both sides), so a consumer that wants
// to mutate a row must copy it first (Row.Clone).
type Iterator interface {
	Operator
	Next() (*Row, error)
}

// Collect drains an iterator into a slice, handling Open/Close. Close
// runs even when Open fails, so resources a partially-successful Open
// acquired (spilled sort runs, budget charges) are released on every
// path.
func Collect(it Iterator) ([]*Row, error) {
	if err := it.Open(); err != nil {
		it.Close()
		return nil, err
	}
	defer it.Close()
	var out []*Row
	for {
		r, err := it.Next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			return out, nil
		}
		out = append(out, r)
	}
}

// sliceIter replays a materialized row slice; several operators
// (sort, block-nested-loop inner) use it internally, and tests use it as
// a stub source.
type sliceIter struct {
	schema *model.Schema
	rows   []*Row
	pos    int
	qc     *QueryCtx
}

// NewSliceIter builds an iterator over pre-materialized rows.
func NewSliceIter(schema *model.Schema, rows []*Row) Iterator {
	return &sliceIter{schema: schema, rows: rows}
}

// SetContext installs the per-query lifecycle.
func (s *sliceIter) SetContext(qc *QueryCtx) { s.qc = qc }

func (s *sliceIter) Open() error { s.pos = 0; return s.qc.check() }

func (s *sliceIter) Next() (*Row, error) {
	if err := s.qc.tick(); err != nil {
		return nil, err
	}
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, nil
}

func (s *sliceIter) Close() error          { return nil }
func (s *sliceIter) Schema() *model.Schema { return s.schema }
