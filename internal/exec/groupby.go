package exec

import (
	"fmt"
	"strings"

	"repro/internal/model"
	"repro/internal/sql"
)

// AggSpec describes one aggregate computed by GroupBy.
type AggSpec struct {
	Func string   // count, sum, avg, min, max (lower-case)
	Arg  sql.Expr // nil for COUNT(*)
	Star bool
	Name string // output column name
}

// GroupBy implements hash aggregation with summary-aware semantics: the
// summary sets of a group's members are merged (without double counting),
// so an aggregated row still carries meaningful annotation summaries —
// the behavior behind the case study's Q2, which counts behavior-related
// annotations per bird family after grouping.
//
// The operator has two modes. With Input set it drains one child on the
// query goroutine. With Workers set (parallel partial aggregation) each
// worker iterator — one partition of the scan — is drained by its own
// goroutine into a private accumulator, and the partials are merged in
// partition order, which reproduces the serial plan's group order and
// per-group summary merge order exactly.
type GroupBy struct {
	Input   Iterator
	Workers []Iterator
	Keys    []sql.Expr
	Aggs    []AggSpec
	Lookup  model.AnnotationLookup

	out    *model.Schema
	groups []*groupState
	pos    int
	qc     *QueryCtx

	chargedRows, chargedBytes int64
}

// SetContext installs the per-query lifecycle and forwards it below.
// Workers are not forwarded: each gets a derived per-worker context at
// Open.
func (g *GroupBy) SetContext(qc *QueryCtx) {
	g.qc = qc
	if g.Input != nil {
		SetIterContext(g.Input, qc)
	}
}

type groupState struct {
	keyVals []model.Value
	oid     int64              // the first member's OID, the output row's
	summ    *model.Accumulator // the members' summaries, merged
	count   int64
	sums    []float64
	isInt   []bool
	counts  []int64
	mins    []model.Value
	maxs    []model.Value
	charge  int64 // bytes charged against the budget for this group
}

// GroupBySchema computes the aggregation output schema: the group keys
// (named after their expressions) followed by one column per aggregate.
// It is shared by the logical planner and the physical operator so both
// agree on names.
func GroupBySchema(inSchema *model.Schema, keys []sql.Expr, aggs []AggSpec) *model.Schema {
	out := &model.Schema{}
	for i, k := range keys {
		name, qual := fmt.Sprintf("key%d", i), ""
		if cr, ok := k.(*sql.ColumnRef); ok {
			name, qual = cr.Name, cr.Qualifier
			if idx, err := inSchema.ColIndex(cr.Qualifier, cr.Name); err == nil {
				out.Columns = append(out.Columns, inSchema.Col(idx))
				out.Qualifiers = append(out.Qualifiers, inSchema.Qualifiers[idx])
				continue
			}
		}
		out.Columns = append(out.Columns, model.Column{Name: name, Kind: model.KindText})
		out.Qualifiers = append(out.Qualifiers, qual)
	}
	for _, a := range aggs {
		kind := model.KindInt
		if a.Func == "avg" {
			kind = model.KindFloat
		}
		out.Columns = append(out.Columns, model.Column{Name: a.Name, Kind: kind})
		out.Qualifiers = append(out.Qualifiers, "")
	}
	return out
}

// NewGroupBy builds the serial operator.
func NewGroupBy(in Iterator, keys []sql.Expr, aggs []AggSpec, lookup model.AnnotationLookup) *GroupBy {
	return &GroupBy{Input: in, Keys: keys, Aggs: aggs, Lookup: lookup,
		out: GroupBySchema(in.Schema(), keys, aggs)}
}

// NewParallelGroupBy builds the parallel partial-aggregation operator:
// every worker iterator is one partition of the input.
func NewParallelGroupBy(workers []Iterator, keys []sql.Expr, aggs []AggSpec, lookup model.AnnotationLookup) *GroupBy {
	return &GroupBy{Workers: workers, Keys: keys, Aggs: aggs, Lookup: lookup,
		out: GroupBySchema(workers[0].Schema(), keys, aggs)}
}

// groupAcc is the aggregation accumulator shared by the serial and
// parallel paths: a hash of group states in first-seen order, charging
// the query budget for every retained group. Each accumulator is used
// by one goroutine; parallel partials are combined with mergeFrom on
// the coordinating goroutine afterwards. The bound key and argument
// expressions are shared by every partial accumulator of one Open.
type groupAcc struct {
	keys   []boundExpr
	args   []boundExpr // one per aggregate; nil for COUNT(*)
	lookup model.AnnotationLookup
	budget *Budget

	byKey map[string]*groupState
	order []string

	chargedRows, chargedBytes int64
}

// bindGroup binds the group keys and aggregate arguments once against
// the input schema.
func (g *GroupBy) bindGroup(schema *model.Schema) (keys, args []boundExpr) {
	ev := &Evaluator{Schema: schema, Lookup: g.Lookup}
	keys = ev.bindAll(g.Keys)
	args = make([]boundExpr, len(g.Aggs))
	for i, agg := range g.Aggs {
		if !agg.Star && agg.Arg != nil {
			args[i] = ev.Bind(agg.Arg)
		}
	}
	return keys, args
}

func newGroupAcc(keys, args []boundExpr, lookup model.AnnotationLookup, budget *Budget) *groupAcc {
	return &groupAcc{
		keys: keys, args: args, lookup: lookup, budget: budget,
		byKey: map[string]*groupState{},
	}
}

// add folds one input row into the accumulator. GroupBy is a pipeline
// breaker: every retained group is charged against the query budget,
// and the operator fails fast with ErrBudgetExceeded when the buffer
// limit is hit (high-cardinality groupings are the risk; per-group
// aggregate state is constant-size).
func (a *groupAcc) add(row *Row) error {
	keyVals := make([]model.Value, len(a.keys))
	var kb strings.Builder
	for i, k := range a.keys {
		v, err := k(row)
		if err != nil {
			return err
		}
		keyVals[i] = v
		kb.WriteString(v.SortKey())
		kb.WriteByte(0)
	}
	key := kb.String()
	gs, ok := a.byKey[key]
	if !ok {
		rb := approxRowBytes(row) + int64(len(a.args))*64
		if cerr := a.budget.ChargeBuffered("GroupBy", 1, rb); cerr != nil {
			return cerr
		}
		a.chargedRows++
		a.chargedBytes += rb
		gs = &groupState{
			keyVals: keyVals,
			oid:     row.Tuple.OID,
			sums:    make([]float64, len(a.args)),
			isInt:   make([]bool, len(a.args)),
			counts:  make([]int64, len(a.args)),
			mins:    make([]model.Value, len(a.args)),
			maxs:    make([]model.Value, len(a.args)),
			charge:  rb,
			summ:    model.NewAccumulator(row.Tuple.Summaries, a.lookup),
		}
		for i := range gs.isInt {
			gs.isInt[i] = true
		}
		a.byKey[key] = gs
		a.order = append(a.order, key)
	} else {
		// Merge the new member's summaries into the group's (Q2
		// semantics: an output tuple's annotations come from all its
		// base tuples, without double counting).
		gs.summ.Add(row.Tuple.Summaries)
	}
	gs.count++
	for ai, arg := range a.args {
		if arg == nil {
			continue
		}
		v, err := arg(row)
		if err != nil {
			return err
		}
		if v.IsNull() {
			continue
		}
		gs.counts[ai]++
		if v.IsNumeric() {
			gs.sums[ai] += v.AsFloat()
			if v.Kind == model.KindFloat {
				gs.isInt[ai] = false
			}
		}
		if gs.mins[ai].IsNull() {
			gs.mins[ai], gs.maxs[ai] = v, v
			continue
		}
		if c, err := v.Compare(gs.mins[ai]); err == nil && c < 0 {
			gs.mins[ai] = v
		}
		if c, err := v.Compare(gs.maxs[ai]); err == nil && c > 0 {
			gs.maxs[ai] = v
		}
	}
	return nil
}

// mergeFrom folds another accumulator's partial states into a. Because
// callers merge partials in partition order — and partitions are
// consecutive page ranges — the resulting first-seen group order and
// per-group summary merge order equal the serial plan's. Groups present
// on both sides release the duplicate's budget charge.
func (a *groupAcc) mergeFrom(o *groupAcc) {
	for _, key := range o.order {
		os := o.byKey[key]
		gs, ok := a.byKey[key]
		if !ok {
			a.byKey[key] = os
			a.order = append(a.order, key)
			continue
		}
		mergeGroupState(gs, os)
		a.budget.ReleaseBuffered(1, os.charge)
		o.chargedRows--
		o.chargedBytes -= os.charge
	}
	a.chargedRows += o.chargedRows
	a.chargedBytes += o.chargedBytes
}

// mergeGroupState combines two partial states of the same group; dst is
// the earlier partition's partial, so its first member's OID and its
// summary merge order win, as in the serial fold.
func mergeGroupState(dst, src *groupState) {
	dst.summ.Add(src.summ.Set())
	dst.count += src.count
	for i := range dst.sums {
		dst.sums[i] += src.sums[i]
		dst.isInt[i] = dst.isInt[i] && src.isInt[i]
		dst.counts[i] += src.counts[i]
		if dst.mins[i].IsNull() {
			dst.mins[i] = src.mins[i]
		} else if !src.mins[i].IsNull() {
			if c, err := src.mins[i].Compare(dst.mins[i]); err == nil && c < 0 {
				dst.mins[i] = src.mins[i]
			}
		}
		if dst.maxs[i].IsNull() {
			dst.maxs[i] = src.maxs[i]
		} else if !src.maxs[i].IsNull() {
			if c, err := src.maxs[i].Compare(dst.maxs[i]); err == nil && c > 0 {
				dst.maxs[i] = src.maxs[i]
			}
		}
	}
}

// states returns the group states in first-seen order.
func (a *groupAcc) states() []*groupState {
	out := make([]*groupState, len(a.order))
	for i, k := range a.order {
		out[i] = a.byKey[k]
	}
	return out
}

// Open builds the group states: serially from Input, or by draining the
// Workers concurrently and merging their partials in partition order.
func (g *GroupBy) Open() (err error) {
	defer recoverOp("GroupBy", &err)
	if len(g.Workers) > 0 {
		return g.openParallel()
	}
	if err := g.Input.Open(); err != nil {
		return err
	}
	defer g.Input.Close()

	keys, args := g.bindGroup(g.Input.Schema())
	acc := newGroupAcc(keys, args, g.Lookup, g.qc.Budget())
	// Keep the charge books on every exit path so Close releases
	// whatever was committed before an error.
	defer func() { g.chargedRows, g.chargedBytes = acc.chargedRows, acc.chargedBytes }()
	for {
		row, err := g.Input.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		if err := acc.add(row); err != nil {
			return err
		}
	}
	g.groups = acc.states()
	g.pos = 0
	return nil
}

// Next emits the next group.
func (g *GroupBy) Next() (res *Row, err error) {
	defer recoverOp("GroupBy", &err)
	if err := g.qc.tick(); err != nil {
		return nil, err
	}
	if g.pos >= len(g.groups) {
		return nil, nil
	}
	gs := g.groups[g.pos]
	g.pos++
	values := make([]model.Value, 0, len(gs.keyVals)+len(g.Aggs))
	values = append(values, gs.keyVals...)
	for ai, a := range g.Aggs {
		switch a.Func {
		case "count":
			if a.Star {
				values = append(values, model.NewInt(gs.count))
			} else {
				values = append(values, model.NewInt(gs.counts[ai]))
			}
		case "sum":
			if gs.isInt[ai] {
				values = append(values, model.NewInt(int64(gs.sums[ai])))
			} else {
				values = append(values, model.NewFloat(gs.sums[ai]))
			}
		case "avg":
			if gs.counts[ai] == 0 {
				values = append(values, model.Null())
			} else {
				values = append(values, model.NewFloat(gs.sums[ai]/float64(gs.counts[ai])))
			}
		case "min":
			values = append(values, gs.mins[ai])
		case "max":
			values = append(values, gs.maxs[ai])
		default:
			return nil, fmt.Errorf("exec: unknown aggregate %q", a.Func)
		}
	}
	out := &Row{Tuple: &model.Tuple{OID: gs.oid, Values: values,
		Summaries: gs.summ.Set()}}
	return out, nil
}

// Close releases the group states and their budget charge (the input
// was closed at Open).
func (g *GroupBy) Close() error {
	g.groups = nil
	g.qc.Budget().ReleaseBuffered(g.chargedRows, g.chargedBytes)
	g.chargedRows, g.chargedBytes = 0, 0
	return nil
}

// Schema returns the group-keys + aggregates schema.
func (g *GroupBy) Schema() *model.Schema { return g.out }
