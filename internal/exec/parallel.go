package exec

import (
	"context"
	"errors"
	"sync"

	"repro/internal/model"
)

// This file is the intra-query parallel execution layer: the Gather
// exchange operator and the parallel open paths of the pipeline
// breakers (GroupBy partial aggregation, HashJoin partitioned build).
// The contract throughout is determinism: workers own consecutive
// page-range partitions of the scanned table, and everything that
// merges worker results does so in partition order, so a parallel plan
// produces byte-identical output to the serial plan it replaces.

// gatherBufferRows is each worker's output channel capacity: enough to
// keep workers busy while the coordinator drains earlier partitions,
// small enough that a LIMIT above the Gather doesn't materialize the
// table.
const gatherBufferRows = 128

// gatherMsg is one worker-to-coordinator message: a row, or a terminal
// error. Workers signal completion by closing their channel.
type gatherMsg struct {
	row *Row
	err error
}

// Gather runs its worker iterators — each one partition of a parallel
// plan fragment — on their own goroutines and emits their rows in
// partition order: all of worker 0, then all of worker 1, and so on.
// Because partitions are consecutive page ranges, that is exactly the
// serial scan order, so replacing a pipeline with Gather(partitions)
// changes performance, never results. Workers run ahead into bounded
// buffers, so partition-ordered emission still overlaps their I/O.
type Gather struct {
	Workers []Iterator

	schema *model.Schema
	qc     *QueryCtx

	cancel context.CancelFunc
	wg     sync.WaitGroup
	chans  []chan gatherMsg
	cur    int
	failed error
}

// NewGather builds the exchange over one iterator per partition.
func NewGather(workers []Iterator) *Gather {
	return &Gather{Workers: workers, schema: workers[0].Schema()}
}

// SetContext installs the per-query lifecycle. Workers are not
// forwarded the parent context: each gets a derived per-worker QueryCtx
// at Open, sharing the parent's budget.
func (g *Gather) SetContext(qc *QueryCtx) { g.qc = qc }

// Open spawns the worker pool. Each worker drives its iterator to
// completion (or first error) on its own goroutine, under a child
// context cancelled when the Gather closes or any sibling fails.
func (g *Gather) Open() (err error) {
	defer recoverOp("Gather", &err)
	if err := g.qc.check(); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(g.qc.Context())
	g.cancel = cancel
	g.chans = make([]chan gatherMsg, len(g.Workers))
	g.cur = 0
	g.failed = nil
	for i, w := range g.Workers {
		out := make(chan gatherMsg, gatherBufferRows)
		g.chans[i] = out
		SetIterContext(w, g.qc.Child(ctx))
		g.wg.Add(1)
		go func(w Iterator, out chan gatherMsg) {
			defer g.wg.Done()
			driveWorker(ctx, w, out, cancel)
		}(w, out)
	}
	return nil
}

// driveWorker runs one worker iterator to completion, streaming rows
// into out. The channel is closed on exit; a terminal error is sent
// first (and cancels the siblings). Panics inside the worker's
// operators are already converted to errors by their own recoverOp
// guards; the outer guard here catches anything escaping the drive
// loop itself so a worker can never crash the process.
func driveWorker(ctx context.Context, w Iterator, out chan<- gatherMsg, cancel context.CancelFunc) {
	defer close(out)
	err := func() (err error) {
		defer recoverOp("ParallelWorker", &err)
		if err := w.Open(); err != nil {
			w.Close()
			return err
		}
		defer w.Close()
		for {
			row, err := w.Next()
			if err != nil {
				return err
			}
			if row == nil {
				return nil
			}
			select {
			case out <- gatherMsg{row: row}:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}()
	if err != nil {
		cancel()
		select {
		case out <- gatherMsg{err: err}:
		default:
			// Buffer full of unread rows: the coordinator is gone or
			// failing anyway; the cancelled context carries the signal.
		}
	}
}

// Next emits the next row in partition order.
func (g *Gather) Next() (row *Row, err error) {
	defer recoverOp("Gather", &err)
	if err := g.qc.tick(); err != nil {
		return nil, err
	}
	if g.failed != nil {
		return nil, g.failed
	}
	for g.cur < len(g.chans) {
		msg, ok := <-g.chans[g.cur]
		if !ok {
			g.cur++
			continue
		}
		if msg.err != nil {
			// A failing worker cancels its siblings, so an earlier
			// partition may report the induced context.Canceled rather
			// than the root cause. Drain the rest (they exit promptly
			// once cancelled) and prefer a substantive error.
			g.failed = msg.err
			for _, ch := range g.chans[g.cur:] {
				for m := range ch {
					if m.err != nil && isCancellation(g.failed) && !isCancellation(m.err) {
						g.failed = m.err
					}
				}
			}
			g.cur = len(g.chans)
			return nil, g.failed
		}
		return msg.row, nil
	}
	return nil, nil
}

// isCancellation reports whether err is (or wraps) a context error.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Close cancels the workers and waits for the pool to drain, so no
// worker goroutine outlives its query.
func (g *Gather) Close() error {
	if g.cancel != nil {
		g.cancel()
		g.cancel = nil
	}
	// Unblock workers stuck sending into full buffers: the cancelled
	// context handles that via the select in driveWorker.
	g.wg.Wait()
	g.chans = nil
	return nil
}

// Schema returns the (shared) worker schema.
func (g *Gather) Schema() *model.Schema { return g.schema }

// openParallel drains every worker partition into a private groupAcc on
// its own goroutine, then merges the partial aggregates in partition
// order — the parallel partial/final aggregation path. The merge
// releases duplicate group charges, so after Open the budget holds
// exactly one charge per distinct group, as in the serial plan.
func (g *GroupBy) openParallel() error {
	ctx, cancel := context.WithCancel(g.qc.Context())
	defer cancel()
	accs := make([]*groupAcc, len(g.Workers))
	errs := make([]error, len(g.Workers))
	keys, args := g.bindGroup(g.Workers[0].Schema())
	var wg sync.WaitGroup
	for i, w := range g.Workers {
		acc := newGroupAcc(keys, args, g.Lookup, g.qc.Budget())
		accs[i] = acc
		SetIterContext(w, g.qc.Child(ctx))
		wg.Add(1)
		go func(i int, w Iterator, acc *groupAcc) {
			defer wg.Done()
			errs[i] = func() (err error) {
				defer recoverOp("ParallelWorker", &err)
				if err := w.Open(); err != nil {
					w.Close()
					return err
				}
				defer w.Close()
				for {
					row, err := w.Next()
					if err != nil {
						return err
					}
					if row == nil {
						return nil
					}
					if err := acc.add(row); err != nil {
						return err
					}
				}
			}()
			if errs[i] != nil {
				cancel() // stop the sibling partitions early
			}
		}(i, w, acc)
	}
	wg.Wait()

	// Account every worker's committed charges before anything else, so
	// Close releases them all even on a failed open.
	var firstErr error
	for i := range accs {
		g.chargedRows += accs[i].chargedRows
		g.chargedBytes += accs[i].chargedBytes
		if errs[i] != nil && (firstErr == nil || (isCancellation(firstErr) && !isCancellation(errs[i]))) {
			firstErr = errs[i]
		}
	}
	if firstErr != nil {
		return firstErr
	}
	merged := accs[0]
	for _, acc := range accs[1:] {
		merged.mergeFrom(acc)
	}
	// mergeFrom released duplicate-group charges; resync the books.
	g.chargedRows, g.chargedBytes = merged.chargedRows, merged.chargedBytes
	g.groups = merged.states()
	g.pos = 0
	return nil
}

// openParallelBuild hashes the build side partition-parallel: each
// build iterator is drained by its own goroutine into a private
// (rows, keys) run, and the runs are folded into one hash table in
// partition order — per-key row order therefore matches a serial
// build of the same input.
func (j *HashJoin) openParallelBuild() error {
	ctx, cancel := context.WithCancel(j.qc.Context())
	defer cancel()
	type buildRun struct {
		rows                      []*Row
		keys                      []string
		chargedRows, chargedBytes int64
	}
	runs := make([]buildRun, len(j.Builds))
	errs := make([]error, len(j.Builds))
	budget := j.qc.Budget()
	var wg sync.WaitGroup
	for i, b := range j.Builds {
		SetIterContext(b, j.qc.Child(ctx))
		wg.Add(1)
		go func(i int, b Iterator) {
			defer wg.Done()
			run := &runs[i]
			errs[i] = func() (err error) {
				defer recoverOp("ParallelWorker", &err)
				if err := b.Open(); err != nil {
					b.Close()
					return err
				}
				defer b.Close()
				for {
					row, err := b.Next()
					if err != nil {
						return err
					}
					if row == nil {
						return nil
					}
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
					run.chargedRows++
					run.chargedBytes += rb
					run.rows = append(run.rows, row)
					run.keys = append(run.keys, hashKey(key))
				}
			}()
			if errs[i] != nil {
				cancel() // stop the sibling partitions early
			}
		}(i, b)
	}
	wg.Wait()

	var firstErr error
	for i := range runs {
		j.chargedRows += runs[i].chargedRows
		j.chargedBytes += runs[i].chargedBytes
		if errs[i] != nil && (firstErr == nil || (isCancellation(firstErr) && !isCancellation(errs[i]))) {
			firstErr = errs[i]
		}
	}
	if firstErr != nil {
		return firstErr
	}
	j.table = make(map[string][]*Row)
	for i := range runs {
		for k, row := range runs[i].rows {
			j.table[runs[i].keys[k]] = append(j.table[runs[i].keys[k]], row)
		}
	}
	return nil
}
