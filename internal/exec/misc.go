package exec

import (
	"strings"

	"repro/internal/model"
)

// Limit passes through at most N rows.
type Limit struct {
	Input BatchOperator
	N     int

	seen int
	qc   *QueryCtx
}

// NewLimit builds a LIMIT node.
func NewLimit(in BatchOperator, n int) *Limit { return &Limit{Input: in, N: n} }

// SetContext installs the per-query lifecycle and forwards it below.
func (l *Limit) SetContext(qc *QueryCtx) {
	l.qc = qc
	SetIterContext(l.Input, qc)
}

// Open opens the input.
func (l *Limit) Open() error {
	l.seen = 0
	return l.Input.Open()
}

// NextBatch passes batches through, truncating the one that crosses the
// limit.
func (l *Limit) NextBatch(qc *QueryCtx) (*Batch, error) {
	if l.seen >= l.N {
		return nil, nil
	}
	b, err := l.Input.NextBatch(qc)
	if err != nil || b == nil {
		return nil, err
	}
	if rem := l.N - l.seen; b.Len() > rem {
		b.Truncate(rem)
	}
	l.seen += b.Len()
	return b, nil
}

// Close closes the input.
func (l *Limit) Close() error { return l.Input.Close() }

// Schema returns the input schema.
func (l *Limit) Schema() *model.Schema { return l.Input.Schema() }

// Distinct eliminates duplicate rows by value. Per the summary-aware
// duplicate-elimination semantics, the summaries of collapsed duplicates
// are merged so no annotation's contribution is lost or double-counted.
type Distinct struct {
	Input  Iterator
	Lookup model.AnnotationLookup

	rows []*Row
	pos  int
	qc   *QueryCtx

	chargedRows, chargedBytes int64
}

// NewDistinct builds the node.
func NewDistinct(in Iterator, lookup model.AnnotationLookup) *Distinct {
	return &Distinct{Input: in, Lookup: lookup}
}

// SetContext installs the per-query lifecycle and forwards it below.
func (d *Distinct) SetContext(qc *QueryCtx) {
	d.qc = qc
	SetIterContext(d.Input, qc)
}

// Open drains the input, collapsing duplicates. Distinct is a
// pipeline breaker: every retained row is charged against the query
// budget, and the operator fails fast with ErrBudgetExceeded when the
// buffer limit is hit.
func (d *Distinct) Open() (err error) {
	defer recoverOp("Distinct", &err)
	if err := d.Input.Open(); err != nil {
		return err
	}
	defer d.Input.Close()
	budget := d.qc.Budget()
	byKey := map[string]int{}
	merging := map[int]*model.Accumulator{} // row index -> its duplicates' fold
	d.rows = nil
	for {
		row, err := d.Input.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		var kb strings.Builder
		for _, v := range row.Tuple.Values {
			kb.WriteString(v.SortKey())
			kb.WriteByte(0)
		}
		key := kb.String()
		if i, ok := byKey[key]; ok {
			acc := merging[i]
			if acc == nil {
				acc = model.NewAccumulator(d.rows[i].Tuple.Summaries, d.Lookup)
				merging[i] = acc
			}
			acc.Add(row.Tuple.Summaries)
			continue
		}
		rb := approxRowBytes(row)
		if cerr := budget.ChargeBuffered("Distinct", 1, rb); cerr != nil {
			return cerr
		}
		d.chargedRows++
		d.chargedBytes += rb
		byKey[key] = len(d.rows)
		d.rows = append(d.rows, row)
	}
	for i, acc := range merging {
		first := d.rows[i]
		merged := &Row{Tuple: first.Tuple.ShallowWithValues(first.Tuple.Values)}
		merged.Tuple.Summaries = acc.Set()
		d.rows[i] = merged
	}
	d.pos = 0
	return nil
}

// Next emits the next distinct row.
func (d *Distinct) Next() (*Row, error) {
	if err := d.qc.tick(); err != nil {
		return nil, err
	}
	if d.pos >= len(d.rows) {
		return nil, nil
	}
	r := d.rows[d.pos]
	d.pos++
	return r, nil
}

// Close releases buffered rows and their budget charge.
func (d *Distinct) Close() error {
	d.rows = nil
	d.qc.Budget().ReleaseBuffered(d.chargedRows, d.chargedBytes)
	d.chargedRows, d.chargedBytes = 0, 0
	return nil
}

// Schema returns the input schema.
func (d *Distinct) Schema() *model.Schema { return d.Input.Schema() }
