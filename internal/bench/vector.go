package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/workload"
)

// vectorBirdsFactor scales the Birds table up for the vectorization
// experiment: batching attacks per-row executor overhead, which only
// dominates on scans long enough that planning and result handling are
// noise.
const vectorBirdsFactor = 20

// Fig24Vectorized measures batch-at-a-time execution (an extension
// beyond the paper, whose engine is row-at-a-time): warm in-memory
// scan-heavy queries under MaxBatchSize 1 (batches of one, the
// row-at-a-time baseline) vs 1024 (vectorized segments), reporting the
// speedup and verifying the batched plans return identical rows. The dataset deliberately stays
// resident (no read delay, no pool cap): vectorization amortizes CPU
// overhead — per-row allocation, interpretation, cancellation polls,
// panic traps — not I/O, so the warm cache is the regime it targets.
func Fig24Vectorized(h *Harness) (*Table, error) {
	ds, err := workload.Build(workload.Config{
		Seed:                   h.Scale.Seed,
		Birds:                  h.Scale.Birds * vectorBirdsFactor,
		AvgAnnotationsPerBird:  2,
		SkipSynonyms:           true,
		LongAnnotationFraction: -1,
	})
	if err != nil {
		return nil, err
	}
	db := ds.DB
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		return nil, err
	}
	birds, err := db.Table("Birds")
	if err != nil {
		return nil, err
	}
	c := pickGreaterConstant(birds, "ClassBird1", "Disease", 0.5)

	queries := []struct {
		name    string
		q       string
		enforce bool
	}{
		// The headline scan: a conjunctive multi-column predicate over the
		// whole table with a selective output, so nearly all the work is
		// per-row scan/filter overhead — the vectorized path's best case
		// and the one the >= 3x floor is enforced on.
		{"multi-predicate filter", `SELECT id FROM Birds b
		   WHERE b.wingspan_cm > 150 AND b.weight_g > 6000 AND b.family <> 'Corvidae'
		     AND b.status <> 'LC' WITHOUT SUMMARIES`, true},
		// A wide projection keeps the output path honest: every surviving
		// row carries three columns through the batched Project.
		{"scan projection", `SELECT id, sci_name, wingspan_cm FROM Birds b
		   WHERE b.id > 0 WITHOUT SUMMARIES`, false},
		// The Summary-BTree scan fills batches from its hit list; the
		// predicate is index-answered so no summaries are fetched.
		{"summary index scan", fmt.Sprintf(`SELECT id FROM Birds r
		   WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > %d
		   WITHOUT SUMMARIES`, c), false},
	}

	t := &Table{
		Figure:  "Figure 24 (extension)",
		Title:   "Vectorized execution: warm scan-heavy queries, batches of one (MaxBatchSize 1) vs 1024",
		Headers: []string{"query", "rows", "batch=1 (ms)", "batch=1024 (ms)", "speedup"},
	}

	for _, q := range queries {
		if err := vectorCheckIdentical(db, q.q); err != nil {
			return nil, err
		}
		rowTime, batchTime, speedup, rowRows, batchRows, err := vectorPairs(db, q.q, vectorPairCount)
		if err != nil {
			return nil, err
		}
		if rowRows != batchRows {
			return nil, fmt.Errorf("fig24: %s returned %d rows vectorized, %d row-at-a-time",
				q.name, batchRows, rowRows)
		}
		t.AddRow(q.name, fmt.Sprint(batchRows), ms(rowTime), ms(batchTime), fmt.Sprintf("%.1fx", speedup))
		if q.enforce && speedup < 3.0 {
			return nil, fmt.Errorf("fig24: vectorized %s only %.1fx over row mode, want >= 3x",
				q.name, speedup)
		}
	}
	t.AddNote("the baseline runs the same operators as batches of one; full batches amortize per-call overhead (pooled containers, slab allocation, interface dispatch, cancellation polls, panic traps) and compare a conjunct over a whole batch in one branch-free loop; rows verified identical per query")
	t.AddNote("%d birds resident in memory; batch containers pooled, scan rows carved from slabs recycled under a projection",
		h.Scale.Birds*vectorBirdsFactor)
	t.AddNote("times are medians of %d alternating batch=1/batch=1024 pairs; speedup is the median of the per-pair ratios", vectorPairCount)
	return t, nil
}

// vectorPairCount is how many row-mode/batched pairs Fig24Vectorized
// times per query.
const vectorPairCount = 9

// vectorPairs times q row-at-a-time (MaxBatchSize 1) and batched (1024)
// in n adjacent pairs, alternating which mode runs first, after one
// warm-up run of each. It returns each mode's median time, the median
// of the per-pair speedups and each mode's row count. Pairing matters
// because the batched query runs in well under a millisecond: load from
// other processes or a collector cycle shifts whole stretches of time,
// so two series timed one after the other can each catch a different
// stretch, while the two halves of a pair share one. The heap is
// collected first so the dataset build's garbage is not marked during
// the pairs.
func vectorPairs(db *engine.DB, q string, n int) (rowMed, batchMed time.Duration, speedup float64, rowRows, batchRows int, err error) {
	modes := [2]*optimizer.Options{{MaxBatchSize: 1}, {MaxBatchSize: 1024}}
	var rows [2]int
	run := func(m int) (time.Duration, error) {
		d, r, _, err := queryTime(db, q, modes[m], 1)
		rows[m] = r
		return d, err
	}
	for m := range modes {
		if _, err := run(m); err != nil {
			return 0, 0, 0, 0, 0, err
		}
	}
	runtime.GC()
	times := [2][]time.Duration{}
	ratios := make([]float64, n)
	for i := 0; i < n; i++ {
		var pair [2]time.Duration
		for j := 0; j < 2; j++ {
			m := (i + j) % 2
			if pair[m], err = run(m); err != nil {
				return 0, 0, 0, 0, 0, err
			}
			times[m] = append(times[m], pair[m])
		}
		ratios[i] = float64(pair[0]) / float64(pair[1])
	}
	for m := range times {
		sort.Slice(times[m], func(a, b int) bool { return times[m][a] < times[m][b] })
	}
	sort.Float64s(ratios)
	return times[0][n/2], times[1][n/2], ratios[n/2], rows[0], rows[1], nil
}

// vectorCheckIdentical compares the full result contents (not just
// counts) of the row-mode and vectorized executions of q.
func vectorCheckIdentical(db *engine.DB, q string) error {
	row, err := db.Query(q, &optimizer.Options{MaxBatchSize: 1})
	if err != nil {
		return err
	}
	batch, err := db.Query(q, &optimizer.Options{MaxBatchSize: 1024})
	if err != nil {
		return err
	}
	if len(row.Rows) != len(batch.Rows) {
		return fmt.Errorf("fig24: row counts diverge: %d vs %d", len(row.Rows), len(batch.Rows))
	}
	for i := range row.Rows {
		if row.Rows[i].Tuple.String() != batch.Rows[i].Tuple.String() {
			return fmt.Errorf("fig24: row %d diverges between row mode and vectorized", i)
		}
	}
	return nil
}
