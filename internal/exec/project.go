package exec

import (
	"strings"

	"repro/internal/model"
	"repro/internal/sql"
)

// projectSlabRows is how many output rows Project carves from one slab
// refill (three allocations per 256 rows instead of three per row; see
// the Iterator ownership rule — carved storage is handed to the
// consumer and never reused).
const projectSlabRows = 256

// Project evaluates projection expressions into a new row. Summary sets
// pass through unchanged: per Theorems 1–2 of the original InsightNotes
// paper, the elimination of projected-out annotations' effects happens
// once, below all merges, in SummaryEffectProject — later projections
// are pure column manipulation (the paper's Figure 3, step 4).
type Project struct {
	Input  BatchOperator
	Exprs  []sql.Expr
	Out    *model.Schema
	Lookup model.AnnotationLookup

	exprs []boundExpr
	qc    *QueryCtx

	// Output slab (amortized allocation; storage still escapes to the
	// consumer, only the allocation is batched).
	slabRows   []Row
	slabTuples []model.Tuple
	slabVals   []model.Value
	slabPos    int
}

// NewProject builds a projection with a pre-computed output schema.
func NewProject(in BatchOperator, exprs []sql.Expr, out *model.Schema, lookup model.AnnotationLookup) *Project {
	return &Project{Input: in, Exprs: exprs, Out: out, Lookup: lookup}
}

// SetContext installs the per-query lifecycle and forwards it below.
func (p *Project) SetContext(qc *QueryCtx) {
	p.qc = qc
	SetIterContext(p.Input, qc)
}

// Open binds the projection expressions and opens the input.
func (p *Project) Open() (err error) {
	defer recoverOp("Project", &err)
	p.exprs = (&Evaluator{Schema: p.Input.Schema(), Lookup: p.Lookup}).bindAll(p.Exprs)
	p.slabRows, p.slabTuples, p.slabVals, p.slabPos = nil, nil, nil, 0
	return p.Input.Open()
}

// carve returns storage for one output row from the operator's slab,
// refilling it in projectSlabRows blocks. Carved storage belongs to the
// consumer and is never written again by this operator.
func (p *Project) carve() (*Row, *model.Tuple, []model.Value) {
	k := len(p.Exprs)
	if p.slabPos >= len(p.slabRows) {
		p.slabRows = make([]Row, projectSlabRows)
		p.slabTuples = make([]model.Tuple, projectSlabRows)
		p.slabVals = make([]model.Value, projectSlabRows*k)
		p.slabPos = 0
	}
	i := p.slabPos
	p.slabPos++
	return &p.slabRows[i], &p.slabTuples[i], p.slabVals[i*k : (i+1)*k : (i+1)*k]
}

// project evaluates the bound expressions over row into carved storage.
func (p *Project) project(row *Row) (*Row, error) {
	out, tup, values := p.carve()
	for i, be := range p.exprs {
		v, err := be(row)
		if err != nil {
			return nil, err
		}
		values[i] = v
	}
	*tup = model.Tuple{OID: row.Tuple.OID, Values: values, Summaries: row.Tuple.Summaries}
	*out = Row{Tuple: tup, AliasSets: row.AliasSets}
	return out, nil
}

// NextBatch projects a whole input batch into carved rows, refilling
// the same container densely in place (consuming any selection vector):
// live row i sits at physical index >= i, so writing output i never
// overwrites an input row still to be read.
func (p *Project) NextBatch(qc *QueryCtx) (b *Batch, err error) {
	defer recoverOp("Project", &err)
	b, err = p.Input.NextBatch(qc)
	if err != nil || b == nil {
		return nil, err
	}
	n := b.Len()
	for i := 0; i < n; i++ {
		out, err := p.project(b.Row(i))
		if err != nil {
			b.Release()
			return nil, err
		}
		b.rows[i] = out
	}
	b.rows, b.sel = b.rows[:n], nil
	return b, nil
}

// Close closes the input.
func (p *Project) Close() error { return p.Input.Close() }

// Schema returns the projection's output schema.
func (p *Project) Schema() *model.Schema { return p.Out }

// SummaryEffectProject eliminates the effect of annotations that are
// attached only to columns the query never uses (Section 2.2, Example 1,
// step 1). It sits directly above a table's scan, below every merge, so
// that equivalent plans propagate identical summaries: classifier counts
// decrement, snippets of dropped annotations disappear, and cluster
// groups shrink with representative re-election.
type SummaryEffectProject struct {
	Input BatchOperator
	// KeptColumns is the lower-cased set of this table's columns the
	// query references anywhere (projection, predicates, joins, sort).
	KeptColumns map[string]bool
	// Annotations fetches a tuple's raw annotations.
	Annotations func(tupleOID int64) []*model.Annotation
	Lookup      model.AnnotationLookup

	qc *QueryCtx
}

// SetContext installs the per-query lifecycle and forwards it below.
func (p *SummaryEffectProject) SetContext(qc *QueryCtx) {
	p.qc = qc
	SetIterContext(p.Input, qc)
}

// NewSummaryEffectProject builds the node. keptColumns are matched
// case-insensitively.
func NewSummaryEffectProject(in BatchOperator, keptColumns []string,
	annotations func(int64) []*model.Annotation, lookup model.AnnotationLookup) *SummaryEffectProject {
	kept := make(map[string]bool, len(keptColumns))
	for _, c := range keptColumns {
		kept[strings.ToLower(c)] = true
	}
	return &SummaryEffectProject{Input: in, KeptColumns: kept,
		Annotations: annotations, Lookup: lookup}
}

// Open opens the input.
func (p *SummaryEffectProject) Open() error { return p.Input.Open() }

// apply rewrites one row's summaries, returning the input row unchanged
// when it carries none.
func (p *SummaryEffectProject) apply(row *Row) *Row {
	set := row.Tuple.Summaries
	if set == nil {
		return row
	}
	surviving := make(map[int64]bool)
	for _, a := range p.Annotations(row.Tuple.OID) {
		if a.SurvivesProjection(p.KeptColumns) {
			surviving[a.ID] = true
		}
	}
	projected := model.ProjectSummaries(set, model.KeepSet(surviving), p.Lookup)
	out := &Row{Tuple: row.Tuple.ShallowWithValues(row.Tuple.Values)}
	out.Tuple.Summaries = projected
	if row.AliasSets != nil {
		out.AliasSets = make(map[string]model.SummarySet, len(row.AliasSets))
		for alias := range row.AliasSets {
			out.AliasSets[alias] = projected
		}
	}
	return out
}

// NextBatch rewrites each live row's summaries in place in the consumed
// batch's container.
func (p *SummaryEffectProject) NextBatch(qc *QueryCtx) (b *Batch, err error) {
	defer recoverOp("SummaryEffectProject", &err)
	b, err = p.Input.NextBatch(qc)
	if err != nil || b == nil {
		return nil, err
	}
	transformBatch(b, p.apply)
	return b, nil
}

// Close closes the input.
func (p *SummaryEffectProject) Close() error { return p.Input.Close() }

// Schema returns the input schema (data content is untouched).
func (p *SummaryEffectProject) Schema() *model.Schema { return p.Input.Schema() }
