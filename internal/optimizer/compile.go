package optimizer

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sql"
)

// Compile lowers a (possibly optimized) logical plan to physical
// operators. Summary propagation is demand-driven: a scan attaches a
// tuple's summary set only when some operator above it needs summaries —
// either because the query propagates them to the output or because a
// predicate, sort key, or projection expression reads the $ variable.
// An index-answered predicate needs no summaries at all (the Figure 13
// no-propagation case), which is what makes backward pointers pay off.
func Compile(n plan.Node, env *Env, opts Options) (exec.Iterator, error) {
	return compileRows(n, env, opts, env.Propagate)
}

func usesDollar(exprs ...sql.Expr) bool {
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if plan.Analyze(e, nil).UsesSummaries {
			return true
		}
	}
	return false
}

// scanLeaf names the table and alias of a scan leaf.
type scanLeaf struct {
	table *catalog.Table
	alias string
}

// deferrableLeaf returns the scan at the bottom of a batched data-only
// Select's input whose summary fetch the Select can take over: the path
// down to it may hold only further Selects whose predicates read no $,
// so nothing between the scan and the top Select looks at summaries.
// Nil otherwise.
func deferrableLeaf(n plan.Node) *scanLeaf {
	switch v := n.(type) {
	case *plan.Select:
		if !usesDollar(v.Pred) {
			return deferrableLeaf(v.Child)
		}
	case *plan.Scan:
		return &scanLeaf{v.Table, v.Alias}
	case *plan.SummaryIndexScanNode:
		return &scanLeaf{v.Table, v.Alias}
	}
	return nil
}

// compile lowers one node to an operator of either protocol, rows or
// batches; need reports whether operators above n require summary sets
// on n's output rows. With a stats collector in opts, every produced
// operator is wrapped in a per-operator runtime recorder keyed by its
// logical node, so EXPLAIN ANALYZE can join estimates and actuals over
// the plan tree. Inside a parallel worker the concurrency-safe worker
// recorders are used instead: all workers of one fragment share the
// same logical nodes, so their rows and Next calls merge into one
// OpStats per node.
func compile(n plan.Node, env *Env, opts Options, need bool) (exec.Operator, error) {
	op, err := compileNode(n, env, opts, need)
	if err != nil {
		return nil, err
	}
	if opts.Collector != nil {
		if opts.inWorker {
			op = opts.Collector.WrapWorker(n, op)
		} else {
			op = opts.Collector.Wrap(n, op)
		}
	}
	return op, nil
}

// compileRows lowers n for a row consumer — a sort, join, aggregate,
// Distinct, Gather worker or the result drain. A streaming segment is
// read through the batch-to-row shim, which sits outside the segment
// top's stats recorder, so EXPLAIN ANALYZE observes the batch cadence.
func compileRows(n plan.Node, env *Env, opts Options, need bool) (exec.Iterator, error) {
	op, err := compile(n, env, opts, need)
	if err != nil {
		return nil, err
	}
	if bo, ok := op.(exec.BatchOperator); ok {
		return exec.NewBatchToRow(bo), nil
	}
	return op.(exec.Iterator), nil
}

// compileBatch lowers the input of a streaming operator. Inside a
// marked segment that is the next batch operator down; an unmarked
// operator runs as batches of one and reads a row input (a sort, join
// or aggregate) one row per batch.
func compileBatch(n plan.Node, env *Env, opts Options, need bool) (exec.BatchOperator, error) {
	op, err := compile(n, env, opts, need)
	if err != nil {
		return nil, err
	}
	if bo, ok := op.(exec.BatchOperator); ok {
		return bo, nil
	}
	return exec.NewRowToBatch(op.(exec.Iterator), 1), nil
}

// compileWorkers lowers a Gather fragment's child once per partition.
// With wrapTop set (fragments consumed by a parallel aggregation or
// hash build, where no exec.Gather exists) each worker's top iterator
// is additionally recorded under the GatherNode itself, merging the
// per-worker row counts the EXPLAIN ANALYZE goldens pin.
func compileWorkers(g *plan.GatherNode, env *Env, opts Options, need bool, wrapTop bool) ([]exec.Iterator, error) {
	workers := make([]exec.Iterator, g.DOP)
	for i := range workers {
		wopts := opts
		wopts.inWorker = true
		wopts.part = exec.PartitionSpec{Index: i, Of: g.DOP}
		it, err := compileRows(g.Child, env, wopts, need)
		if err != nil {
			return nil, err
		}
		if wrapTop && opts.Collector != nil {
			it = opts.Collector.WrapWorker(g, it).(exec.Iterator)
		}
		workers[i] = it
	}
	return workers, nil
}

func compileNode(n plan.Node, env *Env, opts Options, need bool) (exec.Operator, error) {
	// Only a batched Project, filter (σ or S) or limit passes
	// transientRows on.
	transient := opts.transientRows
	opts.transientRows = false
	switch node := n.(type) {
	case *plan.Scan:
		s := exec.NewSeqScan(node.Table, node.Alias, need)
		s.Part = opts.part
		s.BatchSize, s.BatchStart = node.Batch, node.BatchStart
		s.TransientRows = transient && node.Batch > 1
		return s, nil

	case *plan.GatherNode:
		workers, err := compileWorkers(node, env, opts, need, false)
		if err != nil {
			return nil, err
		}
		return exec.NewGather(workers), nil

	case *plan.SummaryIndexScanNode:
		// The index answers its own predicate from itemized keys; the
		// summary set is fetched only when needed above.
		s := exec.NewSummaryIndexScan(node.Table, node.Alias, node.Index,
			node.Label, node.Op, node.Constant, need)
		s.ConventionalPointers = opts.ConventionalPointers
		s.Descending = node.Descending
		s.SortedFetch = node.FetchSorted
		s.Part = opts.part
		s.BatchSize, s.BatchStart = node.Batch, node.BatchStart
		return s, nil

	case *plan.BaselineIndexScanNode:
		s := exec.NewBaselineIndexScan(node.Table, node.Alias, node.Index,
			node.Label, node.Op, node.Constant, need)
		s.ReconstructSummaries = node.Reconstruct
		return s, nil

	case *plan.SummaryProject:
		if !need {
			// Effect projection only transforms summaries; skip it when
			// nothing above reads them.
			return compile(node.Child, env, opts, false)
		}
		child, err := compileBatch(node.Child, env, opts, true)
		if err != nil {
			return nil, err
		}
		return exec.NewSummaryEffectProject(child, node.Kept, env.Annotations, env.Lookup), nil

	case *plan.Select:
		dollar := usesDollar(node.Pred)
		// A batched data-only filter over a batched scan takes the
		// summary fetch over: the scan runs without propagation and the
		// filter attaches summaries to the rows that pass.
		var leaf *scanLeaf
		if need && !dollar && node.Batch > 1 {
			leaf = deferrableLeaf(node.Child)
		}
		copts := opts
		copts.transientRows = transient && node.Batch > 1
		child, err := compileBatch(node.Child, env, copts, dollar || (need && leaf == nil))
		if err != nil {
			return nil, err
		}
		f := exec.NewFilter(child, node.Pred, env.Lookup)
		if leaf != nil {
			f.AttachFrom, f.AttachAlias = leaf.table, leaf.alias
		}
		return f, nil

	case *plan.SummarySelect:
		copts := opts
		copts.transientRows = transient && node.Batch > 1
		child, err := compileBatch(node.Child, env, copts, true)
		if err != nil {
			return nil, err
		}
		return exec.NewSummarySelect(child, node.Pred, env.Lookup), nil

	case *plan.SummaryFilterNode:
		child, err := compileBatch(node.Child, env, opts, need)
		if err != nil {
			return nil, err
		}
		return exec.NewSummaryFilter(child, node.Instances, node.Types), nil

	case *plan.Join:
		childNeed := need || usesDollar(node.On, node.Residual)
		left, err := compileRows(node.Left, env, opts, childNeed)
		if err != nil {
			return nil, err
		}
		if node.UseIndex {
			innerScan, _ := leafScan(node.Right)
			if innerScan == nil {
				return nil, fmt.Errorf("optimizer: index join requires a base-table inner side")
			}
			j := exec.NewIndexJoin(left, innerScan.Table, innerScan.Alias,
				node.IndexColumn, node.OuterKey, node.Residual, need, env.Lookup)
			j.FetchSummaries = childNeed
			return j, nil
		}
		if node.UseHash && node.BuildDOP > 1 {
			// Partition-parallel build: the join's Open drives one build
			// iterator per page-range partition concurrently, folding the
			// runs into the hash table in partition order.
			g := &plan.GatherNode{Child: node.Right, DOP: node.BuildDOP}
			builds, err := compileWorkers(g, env, opts, childNeed, false)
			if err != nil {
				return nil, err
			}
			return exec.NewParallelHashJoin(left, builds, node.HashLeft, node.HashRight,
				node.Residual, need, env.Lookup), nil
		}
		right, err := compileRows(node.Right, env, opts, childNeed)
		if err != nil {
			return nil, err
		}
		if node.UseHash {
			return exec.NewHashJoin(left, right, node.HashLeft, node.HashRight,
				node.Residual, need, env.Lookup), nil
		}
		return exec.NewNLJoin(left, right, node.On, need, env.Lookup), nil

	case *plan.SummaryJoin:
		left, err := compileRows(node.Left, env, opts, true)
		if err != nil {
			return nil, err
		}
		if node.UseIndex {
			innerScan, _ := leafScan(node.Right)
			if innerScan == nil {
				return nil, fmt.Errorf("optimizer: index join requires a base-table inner side")
			}
			j := exec.NewIndexJoin(left, innerScan.Table, innerScan.Alias,
				node.IndexColumn, node.OuterKey, node.Residual, need, env.Lookup)
			j.FetchSummaries = true
			return j, nil
		}
		right, err := compileRows(node.Right, env, opts, true)
		if err != nil {
			return nil, err
		}
		j := exec.NewNLJoin(left, right, node.Pred, need, env.Lookup)
		j.Summary = true
		return j, nil

	case *plan.SortNode:
		keyExprs := make([]sql.Expr, len(node.Keys))
		for i := range node.Keys {
			keyExprs[i] = node.Keys[i].Expr
		}
		child, err := compileRows(node.Child, env, opts, need || usesDollar(keyExprs...))
		if err != nil {
			return nil, err
		}
		if node.Eliminated {
			return child, nil
		}
		if opts.ForceSort == "disk" || node.Disk {
			return exec.NewExternalSort(child, node.Keys, opts.SortRunLen, env.Lookup), nil
		}
		return exec.NewSort(child, node.Keys, env.Lookup), nil

	case *plan.GroupByNode:
		aggExprs := make([]sql.Expr, 0, len(node.Aggs))
		for _, a := range node.Aggs {
			if a.Arg != nil {
				aggExprs = append(aggExprs, a.Arg)
			}
		}
		childNeed := need || usesDollar(append(aggExprs, node.Keys...)...)
		if g, ok := node.Child.(*plan.GatherNode); ok && node.DOP > 1 && g.Partial {
			// Parallel partial/final aggregation: no Gather operator is
			// built — the GroupBy itself drives the workers, each folding
			// its partition into per-group partial states merged in
			// partition order. The worker tops are recorded under the
			// GatherNode so EXPLAIN ANALYZE shows the fragment's rows.
			workers, err := compileWorkers(g, env, opts, childNeed, true)
			if err != nil {
				return nil, err
			}
			return exec.NewParallelGroupBy(workers, node.Keys, node.Aggs, env.Lookup), nil
		}
		child, err := compileRows(node.Child, env, opts, childNeed)
		if err != nil {
			return nil, err
		}
		return exec.NewGroupBy(child, node.Keys, node.Aggs, env.Lookup), nil

	case *plan.ProjectNode:
		// A batched projection copies each input row's values, OID and
		// summary references into rows of its own.
		copts := opts
		copts.transientRows = node.Batch > 1
		child, err := compileBatch(node.Child, env, copts, need || usesDollar(node.Exprs...))
		if err != nil {
			return nil, err
		}
		return exec.NewProject(child, node.Exprs, node.Out, env.Lookup), nil

	case *plan.DistinctNode:
		child, err := compileRows(node.Child, env, opts, need)
		if err != nil {
			return nil, err
		}
		return exec.NewDistinct(child, env.Lookup), nil

	case *plan.LimitNode:
		copts := opts
		copts.transientRows = transient && node.Batch > 1
		child, err := compileBatch(node.Child, env, copts, need)
		if err != nil {
			return nil, err
		}
		return exec.NewLimit(child, node.N), nil

	default:
		return nil, fmt.Errorf("optimizer: cannot compile %T", n)
	}
}
