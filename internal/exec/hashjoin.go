package exec

import (
	"strings"

	"repro/internal/model"
	"repro/internal/sql"
)

// HashJoin is an equi-join implementation beyond the paper's two choices
// (block nested-loop and index-based) — the "more implementation choices
// for the summary-based operators" the paper lists as future work. The
// right input is hashed on its key once; each left row probes the table.
// Like the other joins it preserves the outer (left) input's order and
// merges the joined tuples' summary sets without double counting.
type HashJoin struct {
	Left, Right Iterator
	// Builds, when set, replaces Right with one build-side iterator per
	// partition: the hash table is built partition-parallel and merged
	// in partition order, so the per-key row order (and therefore the
	// join output) matches the serial build exactly.
	Builds []Iterator
	// LeftKey/RightKey are the equi-join key expressions, evaluated
	// against their own side.
	LeftKey, RightKey sql.Expr
	// Residual is an optional extra predicate over the combined row,
	// evaluated pre-merge.
	Residual  sql.Expr
	Propagate bool
	Lookup    model.AnnotationLookup

	schema       *model.Schema
	leftAliases  []string
	rightAliases []string
	table        map[string][]*Row
	leftKey      boundExpr
	rightKey     boundExpr // shared by the parallel build's workers
	residual     boundPred // nil when Residual is nil
	cur          *Row
	matches      []*Row
	matchPos     int
	qc           *QueryCtx

	chargedRows, chargedBytes int64
}

// SetContext installs the per-query lifecycle and forwards it to the
// inputs (parallel build partitions get derived contexts at Open).
func (j *HashJoin) SetContext(qc *QueryCtx) {
	j.qc = qc
	SetIterContext(j.Left, qc)
	if j.Right != nil {
		SetIterContext(j.Right, qc)
	}
}

// NewHashJoin builds a hash join.
func NewHashJoin(left, right Iterator, leftKey, rightKey sql.Expr,
	residual sql.Expr, propagate bool, lookup model.AnnotationLookup) *HashJoin {
	return &HashJoin{
		Left: left, Right: right, LeftKey: leftKey, RightKey: rightKey,
		Residual: residual, Propagate: propagate, Lookup: lookup,
		schema: left.Schema().Concat(right.Schema()),
	}
}

// NewParallelHashJoin builds a hash join whose build side is one
// iterator per partition, hashed concurrently.
func NewParallelHashJoin(left Iterator, builds []Iterator, leftKey, rightKey sql.Expr,
	residual sql.Expr, propagate bool, lookup model.AnnotationLookup) *HashJoin {
	return &HashJoin{
		Left: left, Builds: builds, LeftKey: leftKey, RightKey: rightKey,
		Residual: residual, Propagate: propagate, Lookup: lookup,
		schema: left.Schema().Concat(builds[0].Schema()),
	}
}

// rightSchema is the build side's schema in either mode.
func (j *HashJoin) rightSchema() *model.Schema {
	if len(j.Builds) > 0 {
		return j.Builds[0].Schema()
	}
	return j.Right.Schema()
}

// Open drains and hashes the build (right) side — partition-parallel
// when Builds is set. The build side is what a hash join buffers, so
// every retained row is charged against the query budget; unlike Sort
// there is no graceful degradation — a build side over budget fails
// fast with ErrBudgetExceeded, and the optimizer's sort/NL-based plans
// are the fallback.
func (j *HashJoin) Open() (err error) {
	defer recoverOp("HashJoin", &err)
	j.leftAliases = schemaAliases(j.Left.Schema())
	j.rightAliases = schemaAliases(j.rightSchema())
	j.leftKey = (&Evaluator{Schema: j.Left.Schema(), Lookup: j.Lookup}).Bind(j.LeftKey)
	j.rightKey = (&Evaluator{Schema: j.rightSchema(), Lookup: j.Lookup}).Bind(j.RightKey)
	j.residual = bindOptionalPred(&Evaluator{Schema: j.schema, Lookup: j.Lookup}, j.Residual)
	if len(j.Builds) > 0 {
		if err := j.openParallelBuild(); err != nil {
			return err
		}
		j.cur = nil
		return j.Left.Open()
	}

	budget := j.qc.Budget()
	rows, err := Collect(j.Right)
	if err != nil {
		return err
	}
	j.table = make(map[string][]*Row, len(rows))
	for _, row := range rows {
		key, err := j.rightKey(row)
		if err != nil {
			return err
		}
		if key.IsNull() {
			continue // NULL keys never join
		}
		rb := approxRowBytes(row)
		if cerr := budget.ChargeBuffered("HashJoin", 1, rb); cerr != nil {
			return cerr
		}
		j.chargedRows++
		j.chargedBytes += rb
		k := hashKey(key)
		j.table[k] = append(j.table[k], row)
	}
	j.cur = nil
	return j.Left.Open()
}

// hashKey canonicalizes a join key value: INT and FLOAT with the same
// numeric value must collide (5 = 5.0 joins in the evaluator too).
func hashKey(v model.Value) string {
	if v.Kind == model.KindFloat && v.Float == float64(int64(v.Float)) {
		return model.NewInt(int64(v.Float)).SortKey()
	}
	return v.SortKey()
}

// Next returns the next joined row.
func (j *HashJoin) Next() (res *Row, err error) {
	defer recoverOp("HashJoin", &err)
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
			key, err := j.leftKey(j.cur)
			if err != nil {
				return nil, err
			}
			if key.IsNull() {
				j.matches = nil
			} else {
				j.matches = j.table[hashKey(key)]
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

// Close releases the hash table (and its budget charge) and closes the
// outer input.
func (j *HashJoin) Close() error {
	j.table = nil
	j.matches = nil
	j.qc.Budget().ReleaseBuffered(j.chargedRows, j.chargedBytes)
	j.chargedRows, j.chargedBytes = 0, 0
	return j.Left.Close()
}

// Schema returns the concatenated schema.
func (j *HashJoin) Schema() *model.Schema { return j.schema }

// keyOwnedBy reports whether a column reference belongs to the given
// schema side (used by the optimizer to orient hash-join keys).
func keyOwnedBy(c *sql.ColumnRef, s *model.Schema) bool {
	if c.Qualifier != "" {
		return s.HasQualifier(strings.ToLower(c.Qualifier))
	}
	_, err := s.ColIndex("", c.Name)
	return err == nil
}

// OrientEquiKeys splits an equi-join conjunct's two column references
// into (leftKey, rightKey) relative to the given schemas; ok is false
// when neither orientation fits.
func OrientEquiKeys(a, b *sql.ColumnRef, left, right *model.Schema) (leftKey, rightKey *sql.ColumnRef, ok bool) {
	switch {
	case keyOwnedBy(a, left) && keyOwnedBy(b, right):
		return a, b, true
	case keyOwnedBy(b, left) && keyOwnedBy(a, right):
		return b, a, true
	default:
		return nil, nil, false
	}
}
