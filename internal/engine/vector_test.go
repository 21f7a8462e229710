package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/plan"
)

// resultStrings renders tuples plus their summary sets, so the
// differentials below catch summary-propagation divergence too, not
// just data-column divergence.
func resultStrings(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.Tuple.String() + " / " + r.Tuple.Summaries.String()
	}
	return out
}

// vectorCorpus is the differential corpus: every shape the vectorize
// pass can touch — heap scans, both index fetch modes, both pointer
// schemes, filters, projections, summary propagation on and off, and
// the row-mode consumers (sort, join, group, limit, distinct) fed by
// vectorized segments.
var vectorCorpus = []struct {
	name string
	q    string
	opts optimizer.Options
}{
	{"scan_star", `SELECT * FROM Birds b`, optimizer.Options{}},
	{"scan_filter", `SELECT id, name FROM Birds b WHERE b.family = 'Corvidae'`, optimizer.Options{}},
	{"scan_nosum", `SELECT id FROM Birds b WHERE b.id > 5 AND b.id <= 25 WITHOUT SUMMARIES`, optimizer.Options{}},
	{"index_sorted", `SELECT id, name FROM Birds r
	  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 2
	  ORDER BY name`, optimizer.Options{}},
	{"index_ordered", `SELECT id, name FROM Birds r
	  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 3`,
		optimizer.Options{ForceFetch: "ordered"}},
	{"index_conventional", `SELECT id FROM Birds r
	  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 3`,
		optimizer.Options{ConventionalPointers: true}},
	{"group", `SELECT family, count(*), min(id), max(id) FROM Birds b GROUP BY family`, optimizer.Options{}},
	{"join", `SELECT r.id, s.id FROM Birds r, Birds s
	  WHERE r.family = s.family AND r.id < 5`, optimizer.Options{}},
	{"order_limit", `SELECT name FROM Birds b ORDER BY name LIMIT 7`, optimizer.Options{}},
	{"distinct", `SELECT DISTINCT family FROM Birds b`, optimizer.Options{}},
	{"topk_limit1", `SELECT id, name FROM Birds r
	  ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') DESC LIMIT 1`,
		optimizer.Options{}},
	{"topk_limit50", `SELECT id, name FROM Birds r
	  ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') DESC LIMIT 50`,
		optimizer.Options{}},
	{"limit0", `SELECT id, name FROM Birds b WHERE b.family = 'Corvidae' LIMIT 0`, optimizer.Options{}},
	{"index_data_filter", `SELECT id, name FROM Birds r WHERE r.id < 60
	  AND r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 2`, optimizer.Options{}},
	{"mixed_where", `SELECT id, name FROM Birds r WHERE r.family = 'Laridae'
	  AND r.$.getSummaryObject('ClassBird1').getLabelValue('Anatomy') >= 1`,
		optimizer.Options{NoSummaryIndex: true}},
	{"mixed_or", `SELECT id FROM Birds r WHERE r.family = 'Laridae'
	  OR r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 4`, optimizer.Options{}},
	{"group_filtered", `SELECT family, count(*) FROM Birds r
	  WHERE r.id > 10 AND r.name <> 'Swan014' GROUP BY family`, optimizer.Options{}},
	// DISTINCT folds the summaries of every duplicate into its first
	// row: over a filtered scan, and over a join that repeats each r
	// tuple (so the same snippets and classifier elements recur).
	{"distinct_filtered", `SELECT DISTINCT r.family FROM Birds r WHERE r.id < 40`, optimizer.Options{}},
	{"distinct_join", `SELECT DISTINCT r.family FROM Birds r, Birds s
	  WHERE r.family = s.family AND s.id < 10`, optimizer.Options{}},
}

// rowPlans lists corpus shapes the vectorize pass leaves row-at-a-time:
// a LIMIT of 0 or 1 reached without a filter bounds every batch to one
// row.
var rowPlans = map[string]bool{"topk_limit1": true}

// TestVectorizedDifferential runs the corpus under MaxBatchSize 1, 2,
// 3, and 1024 and requires byte-identical results (order included: the
// serial engine is deterministic and batching must not reorder rows).
// Odd small sizes exercise the batch-boundary edges; 1024 is the
// production configuration.
func TestVectorizedDifferential(t *testing.T) {
	db, _ := testDBWithConfig(t, 100, Config{PageCap: 4})
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range vectorCorpus {
		base := tc.opts
		base.MaxBatchSize = 1
		ref, err := db.Query(tc.q, &base)
		if err != nil {
			t.Fatalf("%s (row mode): %v", tc.name, err)
		}
		want := resultStrings(ref)
		for _, size := range []int{2, 3, 1024} {
			opts := tc.opts
			opts.MaxBatchSize = size
			res, err := db.Query(tc.q, &opts)
			if err != nil {
				t.Fatalf("%s batch=%d: %v", tc.name, size, err)
			}
			got := resultStrings(res)
			if len(got) != len(want) {
				t.Fatalf("%s batch=%d: %d rows, row mode %d", tc.name, size, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s batch=%d diverges at row %d:\n%s\nvs row mode\n%s",
						tc.name, size, i, got[i], want[i])
				}
			}
		}
		// The corpus must actually exercise the vectorized path: every
		// query's batched plan contains at least one batch-marked scan,
		// except the shapes the pass keeps row-at-a-time.
		opts := tc.opts
		opts.MaxBatchSize = 1024
		res, err := db.Query(tc.q, &opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(plan.Explain(res.Plan), "(batch="); got == rowPlans[tc.name] {
			t.Fatalf("%s: batched plan has vectorized segments = %v:\n%s",
				tc.name, got, plan.Explain(res.Plan))
		}
	}
}

// TestVectorizedPageReads pins the I/O side of the default plans
// against row mode. A LIMIT whose rows reach it unfiltered sizes its
// batches to the limit, so it reads no more pages than row mode; a
// data-only filter over a propagating scan fetches summaries only for
// the rows that pass, so it reads fewer.
func TestVectorizedPageReads(t *testing.T) {
	db, _ := testDBWithConfig(t, 100, Config{PageCap: 4})
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	reads := func(q string, size int) int64 {
		t.Helper()
		ap, err := db.ExplainAnalyze(q, &optimizer.Options{MaxBatchSize: size})
		if err != nil {
			t.Fatal(err)
		}
		return ap.IO.PageReads
	}
	for _, q := range []string{
		`SELECT id, name FROM Birds r
		  ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') DESC LIMIT 50`,
		`SELECT id, name FROM Birds r
		  ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') LIMIT 3`,
		`SELECT id, name FROM Birds b LIMIT 7`,
	} {
		row, batched := reads(q, 1), reads(q, 1024)
		if batched > row {
			t.Errorf("unfiltered LIMIT reads %d pages batched, %d in row mode:\n%s", batched, row, q)
		}
	}
	for _, q := range []string{
		`SELECT id, name FROM Birds b WHERE b.family = 'Corvidae'`,
		`SELECT id, name FROM Birds r WHERE r.id < 60
		  AND r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 2`,
		`SELECT family, count(*) FROM Birds r WHERE r.id > 10 AND r.name <> 'Swan014' GROUP BY family`,
	} {
		row, batched := reads(q, 1), reads(q, 1024)
		if batched >= row {
			t.Errorf("filtered propagating scan reads %d pages batched, %d in row mode:\n%s", batched, row, q)
		}
	}
}

// TestVectorizedSerialGoldenIdentity is the MaxBatchSize=1 contract:
// a batch size of 1, per statement or as the engine default, plans
// exactly the row-at-a-time plans the pre-vectorization goldens pin.
func TestVectorizedSerialGoldenIdentity(t *testing.T) {
	db := goldenDB(t)
	rowDB, _ := testDBWithConfig(t, 40, Config{PageCap: 16, MaxBatchSize: 1})
	if err := rowDB.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	for name, q := range map[string]string{
		"explain_index": `SELECT id, name FROM Birds r
		  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 2
		  ORDER BY name`,
		"explain_join": `SELECT r.id, s.id FROM Birds r, Birds s
		  WHERE r.family = s.family AND r.id < 5`,
		"explain_group": `SELECT family FROM Birds b GROUP BY family ORDER BY family LIMIT 2`,
	} {
		capped, err := db.Explain(q, rowMode)
		if err != nil {
			t.Fatal(err)
		}
		compareGolden(t, name, capped)
		byConfig, err := rowDB.Explain(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if byConfig != capped {
			t.Errorf("Config.MaxBatchSize=1 plans differently from Options.MaxBatchSize=1:\n%s\nvs\n%s", byConfig, capped)
		}
	}
}

// TestDefaultBatchSize pins the engine default: a zero configuration
// reports exec.DefaultBatchSize, 1 keeps row-at-a-time, and setting 0
// restores the default.
func TestDefaultBatchSize(t *testing.T) {
	if got := New(Config{}).MaxBatchSize(); got != exec.DefaultBatchSize {
		t.Fatalf("zero Config: MaxBatchSize() = %d, want %d", got, exec.DefaultBatchSize)
	}
	db := New(Config{MaxBatchSize: 1})
	if got := db.MaxBatchSize(); got != 1 {
		t.Fatalf("Config{MaxBatchSize: 1}: MaxBatchSize() = %d", got)
	}
	db.SetMaxBatchSize(0)
	if got := db.MaxBatchSize(); got != exec.DefaultBatchSize {
		t.Fatalf("SetMaxBatchSize(0): MaxBatchSize() = %d, want %d", got, exec.DefaultBatchSize)
	}
}

// TestVectorizedExplainGolden pins the rendering of batched plans: the
// batch=N annotation on scan leaves and the (vectorized) marker on the
// streaming operators of a marked segment.
func TestVectorizedExplainGolden(t *testing.T) {
	db := goldenDB(t)
	opts := &optimizer.Options{MaxBatchSize: 1024}
	for name, q := range map[string]string{
		"explain_vectorized_scan": `SELECT id, name FROM Birds b WHERE b.family = 'Corvidae'`,
		"explain_vectorized_index": `SELECT id, name FROM Birds r
		  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 2
		  ORDER BY name`,
	} {
		out, err := db.Explain(q, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		compareGolden(t, name, out)
	}
	ap, err := db.ExplainAnalyze(`SELECT id FROM Birds b WHERE b.family = 'Corvidae'`, opts)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "analyze_vectorized_scan", wallTimeRe.ReplaceAllString(ap.String(), "time=<t>"))
}

// TestVectorizedParallelRace combines vectorized scans with the
// parallel Gather exchange under concurrent load — the -race leg of
// the vector-stress target. Worker fragments batch independently; each
// result must match the serial row-mode run exactly.
func TestVectorizedParallelRace(t *testing.T) {
	db, _ := testDBWithConfig(t, 120, Config{PageCap: 4})
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`SELECT family, count(*), min(id), max(id) FROM Birds b GROUP BY family`,
		`SELECT id FROM Birds b WHERE b.family = 'Corvidae'`,
		`SELECT id FROM Birds r WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 1`,
	}
	serial := make(map[string][]string, len(queries))
	for _, q := range queries {
		res, err := db.Query(q, &optimizer.Options{MaxParallelWorkers: 1, MaxBatchSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		rows := resultStrings(res)
		sort.Strings(rows)
		serial[q] = rows
	}
	opts := &optimizer.Options{MaxParallelWorkers: 4, MaxBatchSize: 1024}
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(queries))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range queries {
				res, err := db.Query(q, opts)
				if err != nil {
					errs <- err
					return
				}
				rows := resultStrings(res)
				sort.Strings(rows)
				want := serial[q]
				if len(rows) != len(want) {
					errs <- fmt.Errorf("%s: %d rows, serial %d", q, len(rows), len(want))
					return
				}
				for i := range rows {
					if rows[i] != want[i] {
						errs <- fmt.Errorf("%s: row %d diverges from serial", q, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
