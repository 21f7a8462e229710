package exec

import (
	"strings"

	"repro/internal/catalog"
	"repro/internal/model"
	"repro/internal/sql"
)

// PredicateFilter implements both the standard selection σ (data-based
// predicates) and the summary-based selection S of Section 3.2: a tuple
// passes iff the predicate holds; qualifying tuples keep all their
// summary objects unchanged. The two operators share this physical
// implementation and differ only in what their predicates reference —
// the distinction lives in the logical plan where the rewrite rules need
// it.
type PredicateFilter struct {
	Input BatchOperator
	Pred  sql.Expr
	// Summary marks this node as the S operator (for EXPLAIN output).
	Summary bool
	Lookup  model.AnnotationLookup
	// AttachFrom, when set, is the table of the scan below, compiled
	// without propagation: this filter attaches the summary sets (under
	// AttachAlias) to the rows that pass it, so rows the data-only
	// predicate rejects never have their summaries read.
	AttachFrom  *catalog.Table
	AttachAlias string

	pred batchPred
	qc   *QueryCtx
}

// NewFilter builds a σ node.
func NewFilter(in BatchOperator, pred sql.Expr, lookup model.AnnotationLookup) *PredicateFilter {
	return &PredicateFilter{Input: in, Pred: pred, Lookup: lookup}
}

// NewSummarySelect builds an S node.
func NewSummarySelect(in BatchOperator, pred sql.Expr, lookup model.AnnotationLookup) *PredicateFilter {
	return &PredicateFilter{Input: in, Pred: pred, Summary: true, Lookup: lookup}
}

// SetContext installs the per-query lifecycle and forwards it below.
func (f *PredicateFilter) SetContext(qc *QueryCtx) {
	f.qc = qc
	SetIterContext(f.Input, qc)
}

// Open binds the predicate and opens the input.
func (f *PredicateFilter) Open() (err error) {
	defer recoverOp("Filter", &err)
	f.pred = (&Evaluator{Schema: f.Input.Schema(), Lookup: f.Lookup}).BindBatchPred(f.Pred)
	return f.Input.Open()
}

// attach gives a passing row its summary sets when the filter took the
// fetch over from the scan below.
func (f *PredicateFilter) attach(row *Row) {
	if f.AttachFrom == nil {
		return
	}
	row.Tuple.Summaries = f.AttachFrom.GetSummaries(row.Tuple.OID)
	row.AliasSets = aliasSet(f.AttachAlias, row.Tuple.Summaries)
}

// NextBatch filters input batches with the batch-bound predicate, compacting
// each batch's selection vector in place (no row copies) and skipping
// batches the predicate empties.
func (f *PredicateFilter) NextBatch(qc *QueryCtx) (b *Batch, err error) {
	defer recoverOp("Filter", &err)
	for {
		b, err := f.Input.NextBatch(qc)
		if err != nil || b == nil {
			return nil, err
		}
		if err := f.pred(b); err != nil {
			b.Release()
			return nil, err
		}
		if b.Len() > 0 {
			for i := 0; i < b.Len(); i++ {
				f.attach(b.Row(i))
			}
			return b, nil
		}
		b.Release()
	}
}

// Close closes the input.
func (f *PredicateFilter) Close() error { return f.Input.Close() }

// Schema returns the input schema (selection preserves it).
func (f *PredicateFilter) Schema() *model.Schema { return f.Input.Schema() }

// SummaryFilter implements the F operator of Section 3.2: every tuple
// passes, but only its summary objects satisfying the structural
// predicate — instance-name or summary-type membership — are kept.
type SummaryFilter struct {
	Input BatchOperator
	// Instances keeps objects whose InstanceID is listed (empty = any).
	Instances []string
	// Types keeps objects whose type is listed (empty = any).
	Types []model.SummaryType

	qc *QueryCtx
}

// SetContext installs the per-query lifecycle and forwards it below.
func (f *SummaryFilter) SetContext(qc *QueryCtx) {
	f.qc = qc
	SetIterContext(f.Input, qc)
}

// NewSummaryFilter builds an F node.
func NewSummaryFilter(in BatchOperator, instances []string, types []model.SummaryType) *SummaryFilter {
	return &SummaryFilter{Input: in, Instances: instances, Types: types}
}

// Keep reports whether a summary object satisfies the filter.
func (f *SummaryFilter) Keep(o *model.SummaryObject) bool {
	if len(f.Instances) > 0 {
		found := false
		for _, name := range f.Instances {
			if strings.EqualFold(name, o.InstanceID) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if len(f.Types) > 0 {
		found := false
		for _, ty := range f.Types {
			if ty == o.Type {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Open opens the input.
func (f *SummaryFilter) Open() error { return f.Input.Open() }

// apply filters one row's summary set, returning the input row
// unchanged when it carries no summaries.
func (f *SummaryFilter) apply(row *Row) *Row {
	set := row.Tuple.Summaries
	if set == nil {
		return row
	}
	kept := make(model.SummarySet, 0, len(set))
	for _, o := range set {
		if f.Keep(o) {
			kept = append(kept, o)
		}
	}
	out := &Row{Tuple: row.Tuple.ShallowWithValues(row.Tuple.Values)}
	out.Tuple.Summaries = kept
	if row.AliasSets != nil {
		out.AliasSets = make(map[string]model.SummarySet, len(row.AliasSets))
		for alias := range row.AliasSets {
			out.AliasSets[alias] = kept
		}
	}
	return out
}

// NextBatch filters each live row's summary set in place in the
// consumed batch's container.
func (f *SummaryFilter) NextBatch(qc *QueryCtx) (b *Batch, err error) {
	defer recoverOp("SummaryFilter", &err)
	b, err = f.Input.NextBatch(qc)
	if err != nil || b == nil {
		return nil, err
	}
	transformBatch(b, f.apply)
	return b, nil
}

// Close closes the input.
func (f *SummaryFilter) Close() error { return f.Input.Close() }

// Schema returns the input schema (F preserves data content).
func (f *SummaryFilter) Schema() *model.Schema { return f.Input.Schema() }
