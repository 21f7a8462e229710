package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/heap"
	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/workload"
)

// oracleOptions plan the reference answers: no Summary-BTree, none of
// the Section 5 rewrites, row-at-a-time execution.
var oracleOptions = optimizer.Options{NoSummaryIndex: true, DisableRules: true, MaxBatchSize: 1}

// shape is one analytic query shape with its parameter domain, each
// parameter already spliced into the statement text.
type shape struct {
	name  string
	stmts []string
	// orderLabel, when set, names the ClassBird1 label whose count the
	// answer must be sorted on, descending.
	orderLabel string
	// oracle holds the canonical answer per statement.
	oracle map[string]string
	// topk, when set, replaces the oracle comparison.
	topk *topkOracle
}

// topkOracle checks a summary top-k whose LIMIT may cut through tied
// counts, where several row sets are correct: the answer must hold
// min(LIMIT, birds) rows, its Disease counts must equal the oracle's
// sorted counts position by position, and every row must equal that
// bird's row in the oracle's full scan.
type topkOracle struct {
	limit map[string]int    // statement -> its LIMIT
	keys  []int             // Disease counts of all birds, descending
	birds map[string]string // id JSON -> canonical row
}

const (
	filterSQL = `SELECT id, common_name, wingspan_cm FROM Birds b
		WHERE b.wingspan_cm > %d AND b.weight_g > 6000 AND b.habitat = '%s' AND b.status <> 'LC'
		WITHOUT SUMMARIES`
	topkSQL = `SELECT id, common_name FROM Birds r
		ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') DESC LIMIT %d`
	joinSQL = `SELECT r.id, s.synonym FROM Birds r, Synonyms s
		WHERE r.id = s.bird_id%s
		  AND r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 2
		ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Behavior') DESC`
	groupSQL = `SELECT r.family, COUNT(*) FROM Birds r
		WHERE r.region = '%s' AND r.status = '%s' GROUP BY r.family`
)

// buildAnalyticDB generates the analytic data set under a buffer pool a
// quarter its size, then builds the Summary-BTree and the Synonyms join
// index of the Figure 14 setup. The engine configuration is otherwise
// the zero engine.Config.
func buildAnalyticDB(seed int64, birds, anns, syns, frames int) (*engine.DB, error) {
	ds, err := workload.Build(workload.Config{
		Seed:                  seed,
		Birds:                 birds,
		AvgAnnotationsPerBird: anns,
		SynonymsPerBird:       syns,
		BufferPoolPages:       frames,
	})
	if err != nil {
		return nil, err
	}
	if err := ds.DB.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		ds.DB.Close()
		return nil, err
	}
	if err := ds.DB.CreateDataIndex("Synonyms", "bird_id"); err != nil {
		ds.DB.Close()
		return nil, err
	}
	return ds.DB, nil
}

// birdFacts is the per-bird data the shapes' domains and oracles derive
// from.
type birdFacts struct {
	family  map[int64]string
	habitat map[string]bool
	region  map[string]bool
}

func scanBirds(db *engine.DB) (*birdFacts, error) {
	birds, err := db.Table("Birds")
	if err != nil {
		return nil, err
	}
	f := &birdFacts{family: map[int64]string{}, habitat: map[string]bool{}, region: map[string]bool{}}
	birds.Scan(func(_ heap.RID, t *model.Tuple) bool {
		f.family[t.Values[0].Int] = t.Values[4].Text
		f.habitat[t.Values[5].Text] = true
		f.region[t.Values[6].Text] = true
		return true
	})
	return f, nil
}

func labelCount(set model.SummarySet, label string) int {
	obj := set.Get("ClassBird1")
	if obj == nil {
		return 0
	}
	if i := obj.RepIndexByLabel(label); i >= 0 {
		return obj.Reps[i].Count
	}
	return 0
}

// analyticShapes builds the four shapes' domains and computes their
// oracle answers with oracleOptions.
func analyticShapes(ctx context.Context, db *engine.DB, f *birdFacts) ([]*shape, error) {
	filter := &shape{name: "filter_scan"}
	for _, wing := range []int{120, 150, 180} {
		for _, h := range sortedKeys(f.habitat) {
			filter.stmts = append(filter.stmts, fmt.Sprintf(filterSQL, wing, h))
		}
	}
	topk := &shape{name: "summary_topk", orderLabel: "Disease",
		topk: &topkOracle{limit: map[string]int{}, birds: map[string]string{}}}
	for _, n := range []int{45, 50, 55} {
		q := fmt.Sprintf(topkSQL, n)
		topk.stmts = append(topk.stmts, q)
		topk.topk.limit[q] = n
	}
	join := &shape{name: "summary_join", orderLabel: "Behavior"}
	families := map[string]bool{}
	for _, fam := range f.family {
		families[fam] = true
	}
	for _, fam := range sortedKeys(families) {
		join.stmts = append(join.stmts, fmt.Sprintf(joinSQL, fmt.Sprintf(" AND r.family = '%s'", fam)))
	}
	group := &shape{name: "summary_group"}
	for _, region := range sortedKeys(f.region) {
		for _, status := range []string{"EN", "VU"} {
			group.stmts = append(group.stmts, fmt.Sprintf(groupSQL, region, status))
		}
	}
	shapes := []*shape{filter, topk, join, group}
	for _, s := range shapes {
		if len(s.stmts) == 0 {
			return nil, fmt.Errorf("%s: empty parameter domain", s.name)
		}
		s.oracle = map[string]string{}
	}

	opts := oracleOptions
	all, err := db.QueryContext(ctx, "SELECT id, common_name FROM Birds r", &opts)
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", topk.name, err)
	}
	for _, row := range all.Rows {
		topk.topk.birds[idJSON(row.Tuple)] = canonicalResult(&engine.Result{Rows: []*exec.Row{row}}, false)
		topk.topk.keys = append(topk.topk.keys, labelCount(row.Tuple.Summaries, "Disease"))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(topk.topk.keys)))
	for _, s := range []*shape{filter, group} {
		for _, q := range s.stmts {
			res, err := db.QueryContext(ctx, q, &opts)
			if err != nil {
				return nil, fmt.Errorf("oracle %s: %w", s.name, err)
			}
			s.oracle[q] = canonicalResult(res, false)
		}
	}
	// The oracle join runs once over all families (without rules the
	// family filter is not pushed below the join, so one family costs as
	// much as all); each family's answer is its share of the rows. The
	// index join stands in for the nested loop the rule-free plan would
	// otherwise use.
	jopts := oracleOptions
	jopts.ForceJoin = "index"
	res, err := db.QueryContext(ctx, fmt.Sprintf(joinSQL, ""), &jopts)
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", join.name, err)
	}
	byFamily := map[string][]string{}
	for _, row := range res.Rows {
		fam := f.family[row.Tuple.Values[0].Int]
		byFamily[fam] = append(byFamily[fam], string(rowJSON(row.Tuple))+"\x1f"+row.Tuple.Summaries.String())
	}
	for fam := range families {
		join.oracle[fmt.Sprintf(joinSQL, fmt.Sprintf(" AND r.family = '%s'", fam))] = canonical(byFamily[fam], false)
	}
	return shapes, nil
}

// check compares an answer with the oracle and, for sorted shapes,
// checks the order.
func (s *shape) check(q string, res *engine.Result) error {
	if s.topk != nil {
		if err := s.topk.check(q, res); err != nil {
			return err
		}
	} else if canonicalResult(res, false) != s.oracle[q] {
		return fmt.Errorf("answer differs from the %+v oracle", oracleOptions)
	}
	if s.orderLabel == "" {
		return nil
	}
	prev := -1
	for i, row := range res.Rows {
		c := labelCount(row.Tuple.Summaries, s.orderLabel)
		if prev >= 0 && c > prev {
			return fmt.Errorf("row %d out of %s order", i, s.orderLabel)
		}
		prev = c
	}
	return nil
}

func (o *topkOracle) check(q string, res *engine.Result) error {
	if want := min(o.limit[q], len(o.keys)); len(res.Rows) != want {
		return fmt.Errorf("%d rows, want %d", len(res.Rows), want)
	}
	seen := map[string]bool{}
	for i, row := range res.Rows {
		id := idJSON(row.Tuple)
		if seen[id] {
			return fmt.Errorf("bird %s returned twice", id)
		}
		seen[id] = true
		if i >= len(o.keys) || labelCount(row.Tuple.Summaries, "Disease") != o.keys[i] {
			return fmt.Errorf("row %d: Disease count is not the oracle's %d-th highest", i, i+1)
		}
		if canonicalResult(&engine.Result{Rows: []*exec.Row{row}}, false) != o.birds[id] {
			return fmt.Errorf("bird %s differs from the oracle's scan", id)
		}
	}
	return nil
}

// idJSON renders a row's first value, the bird id.
func idJSON(t *model.Tuple) string { return fmt.Sprint(jsonValue(t.Values[0])) }

func runAnalyticScans(r *run) (*report, error) {
	c := r.cfg.Analytic
	rep := &report{workload: "analytic_scans"}

	var setups []time.Duration
	var db *engine.DB
	for i := 0; i < r.cfg.SetupRepeats; i++ {
		if db != nil {
			db.Close()
		}
		t0 := time.Now()
		var err error
		if db, err = buildAnalyticDB(r.seed, c.Birds, c.AnnsPerBird, c.SynsPerBird, c.PoolFrames); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	defer db.Close()
	heapMB := heapMiB()

	ctx := context.Background()
	facts, err := scanBirds(db)
	if err != nil {
		return nil, err
	}
	shapes, err := analyticShapes(ctx, db, facts)
	if err != nil {
		return nil, err
	}

	acct := db.Accountant()
	rng := rand.New(rand.NewSource(r.seed*1000 + 3))
	perShape := make([]latencies, len(shapes))
	seenIO := map[string]int64{}
	var repeats int
	var stmts int
	idx := db.SummaryIndex("Birds", "ClassBird1")
	from := time.Now().Add(r.warmup)
	until := from.Add(r.window)
	done := newPerSecond(from, r.window)
	var before counters
	started := false
	for time.Now().Before(until) {
		if !started && !time.Now().Before(from) {
			before = snapshot(db, idx)
			started = true
		}
		for i, s := range shapes {
			q := s.stmts[rng.Intn(len(s.stmts))]
			io0 := acct.Stats()
			t0 := time.Now()
			res, err := db.QueryContext(ctx, q, nil)
			d := time.Since(t0)
			io := acct.Stats().Sub(io0)
			rep.attempted++
			if err == nil {
				err = s.check(q, res)
			}
			if err != nil {
				rep.fail("%s: %v", s.name, err)
				continue
			}
			// Logical page and node reads depend only on the statement
			// when one client runs, so a repeated statement must match.
			if n, ok := seenIO[q]; ok {
				repeats++
				if n != io.PageReads+io.NodeReads {
					rep.fail("%s: %d logical reads, %d the first time", s.name, io.PageReads+io.NodeReads, n)
					continue
				}
			} else {
				seenIO[q] = io.PageReads + io.NodeReads
			}
			if started && !t0.Before(from) {
				perShape[i] = perShape[i].add(d)
				done.add(t0.Add(d))
				stmts++
			}
		}
	}
	if !started {
		return nil, fmt.Errorf("the window never started")
	}
	win := snapshot(db, idx).sub(before)

	setup := medianSeconds(setups)
	perS := done.median()
	rep.detail = append(rep.detail,
		metric{name: "setup_s", unit: "s", value: setup},
		metric{name: "heap_mb", unit: "MiB", value: heapMB},
		metric{name: "read_per_s", unit: "1/s", value: perS})
	var p50s []float64
	for i, s := range shapes {
		if len(perShape[i]) == 0 {
			return nil, fmt.Errorf("%s: no statement completed in the window", s.name)
		}
		p50s = append(p50s, quantile(perShape[i], 0.5))
		rep.summarize(s.name, perShape[i])
	}
	rep.e2e = e2eMetrics(setup, heapMB, geomean(p50s))
	rep.note("p50_ms is the geometric mean of the four shapes' medians")
	rep.note("setup repeats %v", setups)
	rep.note("logical I/O matched the first execution on all %d repeated statements checked", repeats)
	var domains []string
	for _, s := range shapes {
		domains = append(domains, fmt.Sprintf("%s=%d", s.name, len(s.stmts)))
	}
	rep.note("parameter domains: %s", strings.Join(domains, " "))
	win.describe(rep)

	if r.trace {
		if err := traceAnalytic(r, rep, db, shapes, win, stmts); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
