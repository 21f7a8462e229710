package exec

import (
	"strings"

	"repro/internal/catalog"
	"repro/internal/model"
	"repro/internal/sql"
)

// joinRow builds the combined row two join inputs present to the join
// predicate: concatenated data values, with each side's aliases mapped
// to its own (pre-merge) summary set so that r.$ and s.$ resolve
// per-side, as the J operator's semantics require.
func joinRow(left, right *Row, leftAliases, rightAliases []string) *Row {
	values := make([]model.Value, 0, len(left.Tuple.Values)+len(right.Tuple.Values))
	values = append(append(values, left.Tuple.Values...), right.Tuple.Values...)
	combined := &Row{
		Tuple:     &model.Tuple{OID: left.Tuple.OID, Values: values},
		AliasSets: make(map[string]model.SummarySet, len(leftAliases)+len(rightAliases)),
	}
	for _, a := range leftAliases {
		combined.AliasSets[a] = left.SetFor(a)
	}
	for _, a := range rightAliases {
		combined.AliasSets[a] = right.SetFor(a)
	}
	return combined
}

// mergeJoinOutput merges the two sides' summary sets into the combined
// row (Section 2.2's merge procedure, without double counting) and
// re-points every alias at the merged set.
func mergeJoinOutput(combined *Row, left, right *Row, lookup model.AnnotationLookup) {
	merged := model.MergeSets(left.Tuple.Summaries, right.Tuple.Summaries, lookup)
	combined.Tuple.Summaries = merged
	for a := range combined.AliasSets {
		combined.AliasSets[a] = merged
	}
}

func schemaAliases(s *model.Schema) []string {
	seen := map[string]bool{}
	var out []string
	for _, q := range s.Qualifiers {
		q = strings.ToLower(q)
		if q != "" && !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// bindOptionalPred binds a join predicate that may be absent; a nil
// predicate stays nil so the caller can skip it.
func bindOptionalPred(ev *Evaluator, e sql.Expr) boundPred {
	if e == nil {
		return nil
	}
	return ev.BindPred(e)
}

// NLJoin is a block nested-loop join: the inner (right) input is
// materialized once, then streamed per outer row. It preserves the outer
// input's order — the property rules 5–6 rely on. It implements both the
// data join ⋈ and, with a summary-based predicate, the summary join J;
// both merge the joined tuples' summary objects.
type NLJoin struct {
	Left, Right Iterator
	On          sql.Expr
	// Summary marks the logical J operator (for EXPLAIN).
	Summary   bool
	Propagate bool
	Lookup    model.AnnotationLookup

	schema       *model.Schema
	leftAliases  []string
	rightAliases []string
	inner        []*Row
	cur          *Row
	innerPos     int
	on           boundPred // nil when On is nil
	qc           *QueryCtx
}

// SetContext installs the per-query lifecycle and forwards it to both
// inputs.
func (j *NLJoin) SetContext(qc *QueryCtx) {
	j.qc = qc
	SetIterContext(j.Left, qc)
	SetIterContext(j.Right, qc)
}

// NewNLJoin builds a block nested-loop join.
func NewNLJoin(left, right Iterator, on sql.Expr, propagate bool, lookup model.AnnotationLookup) *NLJoin {
	return &NLJoin{Left: left, Right: right, On: on, Propagate: propagate, Lookup: lookup,
		schema: left.Schema().Concat(right.Schema())}
}

// Open binds the join predicate and materializes the inner input.
func (j *NLJoin) Open() (err error) {
	defer recoverOp("NLJoin", &err)
	j.leftAliases = schemaAliases(j.Left.Schema())
	j.rightAliases = schemaAliases(j.Right.Schema())
	j.on = bindOptionalPred(&Evaluator{Schema: j.schema, Lookup: j.Lookup}, j.On)
	j.inner, err = Collect(j.Right)
	if err != nil {
		return err
	}
	j.cur = nil
	j.innerPos = 0
	return j.Left.Open()
}

// Next returns the next joined row. The inner match loop ticks the
// query context per candidate pair: a large cross product must remain
// cancellable between output rows, not only between outer rows.
func (j *NLJoin) Next() (res *Row, err error) {
	defer recoverOp("NLJoin", &err)
	for {
		if j.cur == nil {
			var err error
			j.cur, err = j.Left.Next()
			if err != nil {
				return nil, err
			}
			if j.cur == nil {
				return nil, nil
			}
			j.innerPos = 0
		}
		for j.innerPos < len(j.inner) {
			if err := j.qc.tick(); err != nil {
				return nil, err
			}
			right := j.inner[j.innerPos]
			j.innerPos++
			combined := joinRow(j.cur, right, j.leftAliases, j.rightAliases)
			if j.on != nil {
				ok, err := j.on(combined)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			if j.Propagate {
				mergeJoinOutput(combined, j.cur, right, j.Lookup)
			}
			return combined, nil
		}
		j.cur = nil
	}
}

// Close closes the outer input (the inner was drained at Open).
func (j *NLJoin) Close() error { j.inner = nil; return j.Left.Close() }

// Schema returns the concatenated schema.
func (j *NLJoin) Schema() *model.Schema { return j.schema }

// IndexJoin joins by probing a data index on the inner table's join
// column for each outer row — the "index-based join" implementation
// choice of Section 5.2. It preserves outer order.
type IndexJoin struct {
	Left Iterator
	// Inner side: a table with a data index on InnerColumn.
	InnerTable *catalog.Table
	InnerAlias string
	InnerCol   string
	// OuterKey is evaluated against the outer row to form the probe key.
	OuterKey sql.Expr
	// Residual is an optional extra predicate over the combined row.
	Residual sql.Expr
	// Propagate merges the sides' summaries into the output.
	Propagate bool
	// FetchSummaries attaches the inner table's summary sets even when
	// Propagate is off (needed when Residual reads $).
	FetchSummaries bool
	Lookup         model.AnnotationLookup

	schema       *model.Schema
	innerSchema  *model.Schema
	leftAliases  []string
	rightAliases []string
	outerKey     boundExpr
	residual     boundPred // nil when Residual is nil
	cur          *Row
	matches      []*Row
	matchPos     int
	qc           *QueryCtx
}

// SetContext installs the per-query lifecycle and forwards it to the
// outer input (inner index probes are built per outer row and receive
// it at creation).
func (j *IndexJoin) SetContext(qc *QueryCtx) {
	j.qc = qc
	SetIterContext(j.Left, qc)
}

// NewIndexJoin builds an index join.
func NewIndexJoin(left Iterator, inner *catalog.Table, innerAlias, innerCol string,
	outerKey sql.Expr, residual sql.Expr, propagate bool, lookup model.AnnotationLookup) *IndexJoin {
	if innerAlias == "" {
		innerAlias = inner.Name
	}
	innerSchema := inner.Schema.Rename(innerAlias)
	return &IndexJoin{
		Left: left, InnerTable: inner, InnerAlias: innerAlias, InnerCol: innerCol,
		OuterKey: outerKey, Residual: residual, Propagate: propagate,
		FetchSummaries: propagate, Lookup: lookup,
		schema:      left.Schema().Concat(innerSchema),
		innerSchema: innerSchema,
	}
}

// Open binds the probe key and residual and opens the outer input.
func (j *IndexJoin) Open() (err error) {
	defer recoverOp("IndexJoin", &err)
	j.leftAliases = schemaAliases(j.Left.Schema())
	j.rightAliases = []string{strings.ToLower(j.InnerAlias)}
	j.outerKey = (&Evaluator{Schema: j.Left.Schema(), Lookup: j.Lookup}).Bind(j.OuterKey)
	j.residual = bindOptionalPred(&Evaluator{Schema: j.schema, Lookup: j.Lookup}, j.Residual)
	j.cur = nil
	return j.Left.Open()
}

// Next returns the next joined row.
func (j *IndexJoin) Next() (res *Row, err error) {
	defer recoverOp("IndexJoin", &err)
	for {
		if j.cur == nil {
			var err error
			j.cur, err = j.Left.Next()
			if err != nil {
				return nil, err
			}
			if j.cur == nil {
				return nil, nil
			}
			key, err := j.outerKey(j.cur)
			if err != nil {
				return nil, err
			}
			scan := NewDataIndexScan(j.InnerTable, j.InnerAlias, j.InnerCol, key, j.FetchSummaries)
			SetIterContext(scan, j.qc)
			j.matches, err = Collect(scan)
			if err != nil {
				return nil, err
			}
			j.matchPos = 0
		}
		for j.matchPos < len(j.matches) {
			if err := j.qc.tick(); err != nil {
				return nil, err
			}
			right := j.matches[j.matchPos]
			j.matchPos++
			combined := joinRow(j.cur, right, j.leftAliases, j.rightAliases)
			if j.residual != nil {
				ok, err := j.residual(combined)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			if j.Propagate {
				mergeJoinOutput(combined, j.cur, right, j.Lookup)
			}
			return combined, nil
		}
		j.cur = nil
	}
}

// Close closes the outer input.
func (j *IndexJoin) Close() error { return j.Left.Close() }

// Schema returns the concatenated schema.
func (j *IndexJoin) Schema() *model.Schema { return j.schema }
