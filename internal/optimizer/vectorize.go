package optimizer

import (
	"repro/internal/exec"
	"repro/internal/plan"
)

// This file is the optimizer's vectorization pass: it marks pipeline
// segments — chains of streaming operators over a single scan leaf —
// with a batch size, so the compiler lowers them to operators
// exchanging full row vectors (exec.Batch); unmarked streaming
// operators run as batches of one. The pass runs last, after
// parallelize, so it sees the final plan shape and marks the worker
// fragments under a GatherNode too (each worker pipeline batches
// independently). With MaxBatchSize <= 1 it is the identity: every
// plan runs as batches of one, with the plans, EXPLAIN output and
// results of the row-at-a-time engine — the property the serial-golden
// identity tests pin.
//
// A LIMIT bounds the batches below it: a segment whose rows reach the
// LIMIT through operators that keep every row (projections, an
// eliminated sort, summary projections and filters) reads at most n
// rows, so it batches min(cap, n) rows at a time — and stays unmarked,
// as batches of one, when that is 1. With a row-dropping filter in between, the scan
// starts at n rows and doubles per batch up to the cap, so a selective
// filter still reaches full batches while an unselective one stops
// after about n rows.

// vectorize marks every vectorizable pipeline segment of the plan with
// the configured batch size.
func (rw *rewriter) vectorize(n plan.Node) plan.Node {
	size := rw.opts.MaxBatchSize
	if size <= 1 {
		return n
	}
	if size > exec.MaxBatchSize {
		size = exec.MaxBatchSize
	}
	vectorizeNode(n, size, unbounded)
	return n
}

// rowBound is how many rows the consumers above a subtree may read:
// at most n (n < 0: no bound). filtered records a row-dropping filter
// between the LIMIT and the subtree, which may then have to produce
// more than n rows.
type rowBound struct {
	n        int
	filtered bool
}

var unbounded = rowBound{n: -1}

// child returns the bound node n passes to its child. A LIMIT sets it;
// operators that keep every row pass it through; filters pass it on
// marked filtered; anything else (sorts, aggregation, joins, Distinct,
// Gather) may read its whole input and drops it.
func (b rowBound) child(n plan.Node) rowBound {
	switch v := n.(type) {
	case *plan.LimitNode:
		if b.n < 0 || v.N <= b.n {
			return rowBound{n: v.N}
		}
		return b
	case *plan.ProjectNode, *plan.SummaryProject, *plan.SummaryFilterNode:
		return b
	case *plan.SortNode:
		if v.Eliminated {
			return b
		}
	case *plan.Select, *plan.SummarySelect:
		b.filtered = true
		return b
	}
	return unbounded
}

// vectorizeNode marks maximal vectorizable chains and recurses through
// everything else. A chain is marked from its top so one shim covers
// the whole segment.
func vectorizeNode(n plan.Node, size int, bound rowBound) {
	if vectorizable(n) {
		markSegment(n, size, bound)
		return
	}
	switch node := n.(type) {
	case *plan.Join:
		vectorizeNode(node.Left, size, unbounded)
		if !node.UseIndex {
			// The inner side of an index join is probed, never iterated;
			// a parallel-build right side batches inside its workers.
			vectorizeNode(node.Right, size, unbounded)
		}
	case *plan.SummaryJoin:
		vectorizeNode(node.Left, size, unbounded)
		if !node.UseIndex {
			vectorizeNode(node.Right, size, unbounded)
		}
	default:
		for _, c := range n.Children() {
			vectorizeNode(c, size, bound.child(n))
		}
	}
}

// markSegment sizes a vectorizable chain from the bound at its leaf and
// marks it, leaving it unmarked (batches of one) when the bound allows
// one row per batch at most.
func markSegment(top plan.Node, size int, bound rowBound) {
	// Chain members have one child each; the scan leaf has none.
	for n := top; len(n.Children()) == 1; n = n.Children()[0] {
		bound = bound.child(n)
	}
	batch, start := size, 0
	switch {
	case bound.n < 0:
	case bound.filtered:
		if bound.n < size {
			start = max(bound.n, 1)
		}
	default:
		batch = min(size, bound.n)
	}
	if batch <= 1 {
		return
	}
	markBatch(top, batch, start)
}

// vectorizable reports whether the subtree is a chain of convertible
// streaming operators over a convertible scan leaf. Both fetch modes of
// the Summary-BTree scan qualify — batching groups consecutive rows
// without reordering them, so ordered (sort-eliminating) scans keep
// their interesting order.
func vectorizable(n plan.Node) bool {
	switch v := n.(type) {
	case *plan.Scan:
		return true
	case *plan.SummaryIndexScanNode:
		return true
	case *plan.Select:
		return vectorizable(v.Child)
	case *plan.SummarySelect:
		return vectorizable(v.Child)
	case *plan.SummaryFilterNode:
		return vectorizable(v.Child)
	case *plan.SummaryProject:
		return vectorizable(v.Child)
	case *plan.ProjectNode:
		return vectorizable(v.Child)
	case *plan.LimitNode:
		return vectorizable(v.Child)
	}
	return false
}

// markBatch stamps the batch size down a vectorizable chain, and the
// growing first-batch size (0: none) on its scan leaf.
func markBatch(n plan.Node, size, start int) {
	switch v := n.(type) {
	case *plan.Scan:
		v.Batch, v.BatchStart = size, start
		return
	case *plan.SummaryIndexScanNode:
		v.Batch, v.BatchStart = size, start
		return
	case *plan.Select:
		v.Batch = size
	case *plan.SummarySelect:
		v.Batch = size
	case *plan.SummaryFilterNode:
		v.Batch = size
	case *plan.SummaryProject:
		v.Batch = size
	case *plan.ProjectNode:
		v.Batch = size
	case *plan.LimitNode:
		v.Batch = size
	}
	markBatch(n.Children()[0], size, start)
}
