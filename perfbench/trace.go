package main

// The traced run. After the measured window, with the workload stopped,
// a sample of the workload's statements is replayed three ways: over
// HTTP (served workloads), in process through the engine's own entry
// point, and as the chain of public calls the engine makes inside that
// entry point — sql.Parse → sql.BindSelect → plan.Builder.Build →
// optimizer.Optimize (or optimizer.Rebind for a cached plan) →
// optimizer.Compile → drain → encode. Every call is a span kept in
// memory and written to a JSON-lines file when the replay ends. A
// layer's metric is the mean self time of its spans; engine.residual_us
// is what the in-process call spends beyond the decomposed layers on
// its path (pinning, flushing, cache bookkeeping), so those layers plus
// the residual add up to engine.execute_us by construction. The chain is
// also run bare, through the same calls without spans, and the
// difference is the tracing overhead (trace.overhead_us). Counters
// from the measured window (pager, WAL, plan cache, runtime) complete
// the per-layer picture.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/mining/lsa"
	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sql"
)

// traceDir is where the traced replay writes its spans, under the
// directory perfbench/run.sh keeps the benchmark's files in.
const traceDir = ".bench_build/trace"

// span is one timed call of the traced replay.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a request's root span
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the replay's spans in memory.
type tracer struct {
	t0    time.Time
	spans []span
	req   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newRequest starts a request and returns its root span.
func (t *tracer) newRequest(name string) int {
	t.req++
	return t.begin(name, -1)
}

// begin starts a span and returns its id. On a nil tracer it records
// nothing, so a chain can be replayed bare through the same calls.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: t.req, Name: name,
		Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// call runs fn as a span.
func (t *tracer) call(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// dur is a span's duration.
func (t *tracer) dur(id int) time.Duration {
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// totalMean returns the mean duration of the spans named name, in
// microseconds.
func (t *tracer) totalMean(name string) float64 {
	var sum float64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += float64(s.End - s.Start)
			n++
		}
	}
	return ratio(sum, float64(n)) / 1e3
}

// selfMeans returns each span name's mean self time in microseconds:
// a span's duration minus the durations of its children.
func (t *tracer) selfMeans() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	sum := map[string]float64{}
	n := map[string]int{}
	for i, s := range t.spans {
		sum[s.Name] += float64(s.End - s.Start - child[i])
		n[s.Name]++
	}
	for k := range sum {
		sum[k] = sum[k] / float64(n[k]) / 1e3
	}
	return sum
}

// write stores the spans as JSON lines.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	return path, f.Close()
}

// layerUnits lists every per-layer metric in report order, with its unit.
var layerUnits = [][2]string{
	{"server.roundtrip_overhead_us", "us"},
	{"server.encode_us", "us"},
	{"server.response_bytes", "bytes"},
	{"sql.normalize_us", "us"},
	{"sql.parse_us", "us"},
	{"sql.bind_us", "us"},
	{"plan.build_us", "us"},
	{"optimizer.optimize_us", "us"},
	{"optimizer.compile_us", "us"},
	{"optimizer.rebind_us", "us"},
	{"optimizer.plancache_hit_ratio", "ratio"},
	{"exec.drain_us", "us"},
	{"exec.scan_self_ms", "ms"},
	{"exec.index_scan_self_ms", "ms"},
	{"exec.filter_self_ms", "ms"},
	{"exec.project_self_ms", "ms"},
	{"exec.sort_self_ms", "ms"},
	{"exec.join_self_ms", "ms"},
	{"exec.groupby_self_ms", "ms"},
	{"exec.rows_examined_per_row", "ratio"},
	{"exec.allocs_per_stmt", "count"},
	{"exec.bytes_per_stmt", "bytes"},
	{"model.merge_us", "us"},
	{"model.summary_string_us", "us"},
	{"index.sbtree_probe_us", "us"},
	{"index.sbtree_node_reads_per_probe", "count"},
	{"index.sbtree_rekeys_per_ann", "count"},
	{"pager.page_reads_per_stmt", "count"},
	{"pager.phys_reads_per_stmt", "count"},
	{"pager.cache_hit_ratio", "ratio"},
	{"pager.evictions_per_stmt", "count"},
	{"mining.bayes_classify_us", "us"},
	{"mining.lsa_summarize_us", "us"},
	{"engine.add_annotation_us", "us"},
	{"engine.execute_us", "us"},
	{"engine.residual_us", "us"},
	{"wal.fsyncs_per_ann", "count"},
	{"wal.appends_per_ann", "count"},
	{"wal.log_bytes_per_ann_byte", "ratio"},
	{"wal.group_commit_batch", "count"},
	{"runtime.gc_per_s", "1/s"},
	{"runtime.alloc_mb_per_s", "MiB/s"},
	{"trace.overhead_us", "us"},
	{"trace.overhead_pct", "%"},
	{"trace.decomposed_share", "ratio"},
}

// layerSet collects per-layer values by name, then emits them in
// layerUnits order; a metric never set is reported n/a.
type layerSet struct {
	vals map[string]float64
	na   map[string]string
}

func newLayerSet() *layerSet {
	return &layerSet{vals: map[string]float64{}, na: map[string]string{}}
}

func (l *layerSet) set(name string, v float64) { l.vals[name] = v }

func (l *layerSet) skip(reason string, names ...string) {
	for _, n := range names {
		l.na[n] = reason
	}
}

func (l *layerSet) emit(rep *report) {
	for _, nu := range layerUnits {
		name, unit := nu[0], nu[1]
		if v, ok := l.vals[name]; ok {
			rep.layer(name, unit, v)
			continue
		}
		reason := l.na[name]
		if reason == "" {
			reason = "not measured"
		}
		rep.na(name, unit, reason)
	}
}

// windowLayers derives the per-layer counters of the measured window.
func windowLayers(l *layerSet, win delta, stmts int) {
	n := float64(stmts)
	l.set("pager.page_reads_per_stmt", ratio(float64(win.io.PageReads), n))
	l.set("runtime.gc_per_s", ratio(float64(win.numGC), win.seconds))
	l.set("runtime.alloc_mb_per_s", ratio(win.allocMiB, win.seconds))
	if win.io.CacheHits+win.io.CacheMisses > 0 {
		l.set("pager.phys_reads_per_stmt", ratio(float64(win.io.PhysReads), n))
		l.set("pager.cache_hit_ratio", ratio(float64(win.io.CacheHits), float64(win.io.CacheHits+win.io.CacheMisses)))
		l.set("pager.evictions_per_stmt", ratio(float64(win.io.Evictions), n))
	} else {
		l.skip("no buffer pool: every page is resident",
			"pager.phys_reads_per_stmt", "pager.cache_hit_ratio", "pager.evictions_per_stmt")
	}
}

// opCategory maps an executor operator name onto its exec.*_self_ms
// metric.
func opCategory(name string) string {
	switch name {
	case "SeqScan":
		return "exec.scan_self_ms"
	case "SummaryIndexScan", "BaselineIndexScan", "DataIndexScan":
		return "exec.index_scan_self_ms"
	case "Filter", "SummarySelect", "SummaryFilter":
		return "exec.filter_self_ms"
	case "Project", "SummaryProject":
		return "exec.project_self_ms"
	case "Sort", "ExternalSort", "Limit":
		return "exec.sort_self_ms"
	case "HashJoin", "ParallelHashJoin", "IndexJoin", "NLJoin":
		return "exec.join_self_ms"
	case "GroupBy", "ParallelGroupBy", "Distinct":
		return "exec.groupby_self_ms"
	}
	return ""
}

var opCategories = []string{"exec.scan_self_ms", "exec.index_scan_self_ms", "exec.filter_self_ms",
	"exec.project_self_ms", "exec.sort_self_ms", "exec.join_self_ms", "exec.groupby_self_ms"}

// operatorProfile accumulates EXPLAIN ANALYZE per-operator self times.
type operatorProfile struct {
	selfMS   map[string]float64
	stmts    int
	examined int64 // rows produced by base-table access operators
	returned int64
	perShape map[string]map[string]float64
}

func newOperatorProfile() *operatorProfile {
	return &operatorProfile{selfMS: map[string]float64{}, perShape: map[string]map[string]float64{}}
}

// add runs q under EXPLAIN ANALYZE and attributes each operator's self
// time (its wall time minus its executed children's) to its category.
func (p *operatorProfile) add(db *engine.DB, shapeName, q string) error {
	ap, err := db.ExplainAnalyze(q, nil)
	if err != nil {
		return err
	}
	p.stmts++
	p.returned += int64(len(ap.Result.Rows))
	if p.perShape[shapeName] == nil {
		p.perShape[shapeName] = map[string]float64{}
	}
	ap.Root.Walk(func(n *optimizer.AnalyzedNode) {
		if n.Stats == nil {
			return
		}
		self := n.Stats.Wall()
		for _, c := range n.Children {
			if c.Stats != nil {
				self -= c.Stats.Wall()
			}
		}
		cat := opCategory(n.Stats.Name)
		if cat == "" {
			return
		}
		ms := float64(self) / 1e6
		p.selfMS[cat] += ms
		p.perShape[shapeName][cat] += ms
		if cat == "exec.scan_self_ms" || cat == "exec.index_scan_self_ms" {
			p.examined += n.Stats.Rows
		}
	})
	return nil
}

func (p *operatorProfile) emit(l *layerSet, rep *report) {
	for _, cat := range opCategories {
		l.set(cat, p.selfMS[cat]/float64(p.stmts))
	}
	l.set("exec.rows_examined_per_row", ratio(float64(p.examined), float64(p.returned)))
	names := map[string]bool{}
	for name := range p.perShape {
		names[name] = true
	}
	for _, name := range sortedKeys(names) {
		var parts []string
		for _, cat := range opCategories {
			if v := p.perShape[name][cat]; v != 0 {
				parts = append(parts, fmt.Sprintf("%s=%.3f", strings.TrimSuffix(strings.TrimPrefix(cat, "exec."), "_self_ms"), v))
			}
		}
		rep.note("operator self ms summed over the %s sample: %s", name, strings.Join(parts, " "))
	}
}

// engineEnv is the optimizer environment the engine builds for a
// statement, assembled from the public catalog and index accessors.
func engineEnv(db *engine.DB, propagate bool) *optimizer.Env {
	cat := db.Catalog()
	return &optimizer.Env{
		Cat:         cat,
		SummaryIdx:  db.SummaryIndex,
		BaselineIdx: db.BaselineIndex,
		Annotations: cat.Anns.ForTuple,
		Lookup:      cat.Anns.Lookup(),
		Propagate:   propagate,
	}
}

// engineOptions are the optimizer options the engine applies when the
// caller passes none: its parallelism and batch-size defaults.
func engineOptions(db *engine.DB) optimizer.Options {
	return optimizer.Options{MaxParallelWorkers: db.MaxParallelWorkers(), MaxBatchSize: db.MaxBatchSize()}
}

// decomposed replays one statement as the chain of public calls, each a
// child span of parent, and returns its rows. With rebind set, the
// optimized plan is also rebound (the plan cache's hit path) and the
// rebound plan is the one compiled.
type chainCall struct {
	text      string // statement text to normalize and parse
	params    []model.Value
	normalize bool
	bind      bool
	rebind    bool
}

func decomposed(t *tracer, parent int, db *engine.DB, c chainCall) ([]*exec.Row, error) {
	if c.normalize {
		t.call("sql.normalize", parent, func() { _ = sql.Normalize(c.text) })
	}
	var stmt sql.Statement
	var err error
	t.call("sql.parse", parent, func() { stmt, err = sql.Parse(c.text) })
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("not a SELECT")
	}
	if c.bind {
		t.call("sql.bind", parent, func() { sel, err = sql.BindSelect(sel, c.params) })
		if err != nil {
			return nil, err
		}
	}
	var root plan.Node
	var resolver *plan.AliasResolver
	t.call("plan.build", parent, func() { root, resolver, err = (&plan.Builder{Cat: db.Catalog()}).Build(sel) })
	if err != nil {
		return nil, err
	}
	env := engineEnv(db, sel.Propagate)
	opts := engineOptions(db)
	var optimized plan.Node
	t.call("optimizer.optimize", parent, func() { optimized = optimizer.Optimize(root, resolver, env, opts) })
	if c.rebind {
		t.call("optimizer.rebind", parent, func() { optimized, err = optimizer.Rebind(optimized, env) })
		if err != nil {
			return nil, err
		}
	}
	var it exec.Iterator
	t.call("optimizer.compile", parent, func() { it, err = optimizer.Compile(optimized, env, opts) })
	if err != nil {
		return nil, err
	}
	var rows []*exec.Row
	t.call("exec.drain", parent, func() {
		exec.SetIterContext(it, exec.NewQueryCtx(context.Background(), nil))
		rows, err = exec.Collect(it)
	})
	if err != nil {
		return nil, err
	}
	if !sel.Propagate {
		for _, row := range rows {
			row.Tuple.Summaries = nil
		}
	}
	return rows, nil
}

// encode builds the result payload for rows and serializes it, as the
// front-end does per response. It is a replica of internal/server's
// unexported toPayload plus json.Marshal (same fields, with the column
// names, plan-cache flag and LSN taken from the in-process result meta),
// not a call into the server: a change to the server's encoding moves
// server.encode_us only once it is mirrored here, while
// server.roundtrip_overhead_us sees it directly. Each row's summary
// rendering is a child span; server.encode_us counts the whole span,
// renderings included.
func encode(t *tracer, parent int, meta *engine.Result, rows []*exec.Row) {
	id := t.begin("server.encode", parent)
	func() {
		payload := struct {
			Columns    []string `json:"columns"`
			Rows       [][]any  `json:"rows"`
			RowCount   int      `json:"row_count"`
			Summaries  []string `json:"summaries,omitempty"`
			CachedPlan bool     `json:"cached_plan"`
			AsOfLSN    uint64   `json:"as_of_lsn,omitempty"`
		}{Columns: meta.Columns, Rows: make([][]any, len(rows)), RowCount: len(rows),
			CachedPlan: meta.CachedPlan, AsOfLSN: meta.AsOfLSN}
		if payload.Columns == nil {
			payload.Columns = []string{}
		}
		sums := make([]string, len(rows))
		hasSums := false
		for i, row := range rows {
			vals := make([]any, len(row.Tuple.Values))
			for j, v := range row.Tuple.Values {
				vals[j] = jsonValue(v)
			}
			payload.Rows[i] = vals
			if set := row.Tuple.Summaries; len(set) > 0 {
				t.call("model.summary_string", id, func() { sums[i] = set.String() })
				hasSums = true
			}
		}
		if hasSums {
			payload.Summaries = sums
		}
		_, _ = json.Marshal(payload) // values are ints, floats, strings, bools and nil
	}()
	t.end(id)
}

func rowsCanonical(rows []*exec.Row) string {
	return canonicalResult(&engine.Result{Rows: rows}, false)
}

// probeSummaryBTree times Summary-BTree equality probes over the
// Disease counts present and counts the index nodes each reads.
func probeSummaryBTree(l *layerSet, db *engine.DB) {
	idx := db.SummaryIndex("Birds", "ClassBird1")
	if idx == nil {
		l.skip("no Summary-BTree", "index.sbtree_probe_us", "index.sbtree_node_reads_per_probe")
		return
	}
	acct := db.Accountant()
	var total time.Duration
	var nodes int64
	probes := 0
	for rep := 0; rep < 3; rep++ {
		for k := 0; k <= 6; k++ {
			io0 := acct.Stats()
			t0 := time.Now()
			_ = idx.Search("Disease", index.OpEq, k)
			total += time.Since(t0)
			nodes += acct.Stats().Sub(io0).NodeReads
			probes++
		}
	}
	l.set("index.sbtree_probe_us", float64(total.Nanoseconds())/float64(probes)/1e3)
	l.set("index.sbtree_node_reads_per_probe", float64(nodes)/float64(probes))
}

// allocsPerStmt runs fn n times and reports heap allocations per call.
func allocsPerStmt(l *layerSet, n int, fn func(i int)) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	l.set("exec.allocs_per_stmt", float64(b.Mallocs-a.Mallocs)/float64(n))
	l.set("exec.bytes_per_stmt", float64(b.TotalAlloc-a.TotalAlloc)/float64(n))
}

// replayTimes accumulates the per-statement comparisons of the replay.
type replayTimes struct {
	execute, http []time.Duration
	hitPath       []time.Duration // decomposed layers on the engine's own path
	traced, bare  []time.Duration // the decomposed chain with and without spans
	bytes         int
}

// executeSpan runs the in-process call fn as an engine.execute span.
func (rt *replayTimes) executeSpan(t *tracer, root int, fn func() error) error {
	id := t.begin("engine.execute", root)
	err := fn()
	t.end(id)
	rt.execute = append(rt.execute, t.dur(id))
	return err
}

// chainPair runs a statement's decomposed chain twice: traced, as a
// "decomposed" span under root with one child span per layer call, and
// bare, through the same calls on a nil tracer between two clock reads.
// Which goes first alternates with rep so neither always runs warmer.
// It returns the traced chain's span and rows.
func (rt *replayTimes) chainPair(t *tracer, root, rep int,
	replay func(t *tracer, parent int) ([]*exec.Row, error)) (int, []*exec.Row, error) {
	chain := -1
	var rows []*exec.Row
	traced := func() error {
		chain = t.begin("decomposed", root)
		var err error
		rows, err = replay(t, chain)
		t.end(chain)
		rt.traced = append(rt.traced, t.dur(chain))
		return err
	}
	bare := func() error {
		t0 := time.Now()
		_, err := replay(nil, -1)
		rt.bare = append(rt.bare, time.Since(t0))
		return err
	}
	first, second := traced, bare
	if rep%2 == 1 {
		first, second = bare, traced
	}
	if err := first(); err != nil {
		return chain, nil, err
	}
	return chain, rows, second()
}

func mean(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return float64(s) / float64(len(ds)) / 1e3
}

// emit reports execute time, the residual beyond the decomposed layers,
// and what the spans cost: the median over statements of the traced
// decomposed chain's time minus the same chain's time run bare.
func (rt *replayTimes) emit(l *layerSet, rep *report) {
	exe, layers := mean(rt.execute), mean(rt.hitPath)
	diffs := make([]float64, len(rt.traced))
	bares := make([]float64, len(rt.bare))
	for i := range rt.traced {
		diffs[i] = float64(rt.traced[i]-rt.bare[i]) / 1e3
		bares[i] = float64(rt.bare[i]) / 1e3
	}
	overhead, bare := quantile(diffs, 0.5), quantile(bares, 0.5)
	l.set("engine.execute_us", exe)
	l.set("engine.residual_us", exe-layers)
	l.set("trace.overhead_us", overhead)
	l.set("trace.overhead_pct", 100*ratio(overhead, bare))
	l.set("trace.decomposed_share", ratio(layers, exe))
	rep.note("decomposition: execute %.1fus = decomposed layers on its path %.1fus + residual %.1fus (%d statements x repeats)",
		exe, layers, exe-layers, len(rt.execute))
	rep.note("tracing overhead: decomposed chain traced minus bare %.1fus per statement (median of %d pairs; bare median %.1fus, traced mean %.1fus, bare mean %.1fus)",
		overhead, len(diffs), bare, mean(rt.traced), mean(rt.bare))
	if len(rt.http) > 0 {
		l.set("server.roundtrip_overhead_us", mean(rt.http)-exe)
		l.set("server.response_bytes", float64(rt.bytes)/float64(len(rt.http)))
	}
}

const traceRepeats = 3

// traceServed is the traced run of the served workloads. For each
// sampled read: one HTTP call brings the caches to the state the window
// left them in, then, repeated, the read is sent over HTTP, executed in
// process, and replayed as decomposed calls on the plan cache's hit
// path, traced and bare. w carries the ingest window (nil on
// served_reads); its texts are replayed through the mining layers and
// AddAnnotation.
func traceServed(r *run, rep *report, db *engine.DB, ep *endpoint, mix *readMix, win delta, reads int, w *walWindow) error {
	t := newTracer()
	l := newLayerSet()
	rt := &replayTimes{}
	prof := newOperatorProfile()
	ctx := context.Background()
	c := newHTTPClient(ep.base)
	defer c.close()
	sess, err := openSession(c, mix)
	if err != nil {
		return err
	}
	stmts := map[int]*engine.Stmt{}
	for kind, k := range servedKinds {
		if k.prepared {
			if stmts[kind], err = db.Prepare(k.sql); err != nil {
				return err
			}
		}
	}
	inProcess := func(q readReq) (*engine.Result, error) {
		if st := stmts[q.kind]; st != nil {
			return st.ExecuteContext(ctx, q.params, nil)
		}
		return db.QueryCachedContext(ctx, q.literalSQL(), nil, nil)
	}

	rng := rand.New(rand.NewSource(r.seed*1000 + 7))
	var sample []readReq
	for _, d := range mix.domains {
		for i := 0; i < r.cfg.TraceSample; i++ {
			sample = append(sample, d[rng.Intn(len(d))])
		}
	}
	notHit := 0
	for _, q := range sample {
		if _, _, err := sess.read(q); err != nil {
			return err
		}
		k := servedKinds[q.kind]
		for i := 0; i < traceRepeats; i++ {
			root := t.newRequest(k.name)
			id := t.begin("server.http", root)
			_, body, err := sess.read(q)
			t.end(id)
			if err != nil {
				return err
			}
			rt.http = append(rt.http, t.dur(id))
			rt.bytes += len(body)

			var res *engine.Result
			err = rt.executeSpan(t, root, func() error {
				var err error
				res, err = inProcess(q)
				return err
			})
			if err != nil {
				return err
			}
			if !res.CachedPlan {
				notHit++
			}

			text := k.sql
			if !k.prepared {
				text = q.literalSQL()
			}
			call := chainCall{text: text, normalize: true, bind: true, rebind: true}
			if k.prepared {
				call.params = q.params
			}
			chain, rows, err := rt.chainPair(t, root, i, func(t *tracer, parent int) ([]*exec.Row, error) {
				rows, err := decomposed(t, parent, db, call)
				if err == nil {
					encode(t, parent, res, rows)
				}
				return rows, err
			})
			if err != nil {
				return err
			}
			rep.attempted++
			if rowsCanonical(rows) != canonicalResult(res, false) {
				rep.fail("%s %v: decomposed replay answers differently from Stmt.ExecuteContext", k.name, q.params)
			}
			// The engine's own path on a plan-cache hit: bind, rebind,
			// compile, drain — plus normalize for ad-hoc text, which the
			// statement cache keys on.
			path := []string{"sql.bind", "optimizer.rebind", "optimizer.compile", "exec.drain"}
			if !k.prepared {
				path = append(path, "sql.normalize")
			}
			rt.hitPath = append(rt.hitPath, childTime(t, chain, path))
		}
		if err := prof.add(db, k.name, q.literalSQL()); err != nil {
			return err
		}
	}
	if notHit > 0 {
		rep.note("%d in-process executions missed the plan cache during the replay", notHit)
	}
	allocsPerStmt(l, len(sample), func(i int) { _, _ = inProcess(sample[i]) })

	for name, us := range t.selfMeans() {
		switch name {
		case "sql.normalize", "sql.parse", "sql.bind", "plan.build", "optimizer.optimize",
			"optimizer.compile", "optimizer.rebind", "exec.drain", "model.summary_string":
			l.set(name+"_us", us)
		}
	}
	l.set("server.encode_us", t.totalMean("server.encode"))
	rt.emit(l, rep)
	prof.emit(l, rep)
	probeSummaryBTree(l, db)
	windowLayers(l, win, reads)
	l.set("optimizer.plancache_hit_ratio", ratio(float64(win.cacheHits), float64(win.cacheHits+win.cacheMiss)))
	l.skip("the served mix has no GROUP BY or join", "model.merge_us")

	if w == nil {
		l.skip("served_reads writes nothing", "index.sbtree_rekeys_per_ann", "mining.bayes_classify_us",
			"mining.lsa_summarize_us", "engine.add_annotation_us", "wal.fsyncs_per_ann", "wal.appends_per_ann",
			"wal.log_bytes_per_ann_byte", "wal.group_commit_batch")
	} else if err := traceIngest(t, l, db, w); err != nil {
		return err
	}

	path, err := t.write(traceDir, fmt.Sprintf("%s-seed%d.jsonl", rep.workload, r.seed))
	if err != nil {
		return err
	}
	rep.note("%d spans written to %s", len(t.spans), path)
	l.emit(rep)
	return nil
}

// childTime sums the durations of parent's children with the given
// names.
func childTime(t *tracer, parent int, names []string) time.Duration {
	var d time.Duration
	for i := parent + 1; i < len(t.spans); i++ {
		s := t.spans[i]
		if s.Parent != parent {
			continue
		}
		for _, n := range names {
			if s.Name == n {
				d += time.Duration(s.End - s.Start)
			}
		}
	}
	return d
}

// traceIngest replays ingest texts through the classifier, the LSA
// summarizer and AddAnnotation, and derives the write path's per-layer
// counters from the ingest window.
func traceIngest(t *tracer, l *layerSet, db *engine.DB, w *walWindow) error {
	anns := float64(w.anns)
	l.set("index.sbtree_rekeys_per_ann", ratio(float64(w.delta.sbtreeOps), anns))
	l.set("wal.fsyncs_per_ann", ratio(float64(w.delta.wal.Fsyncs), anns))
	l.set("wal.appends_per_ann", ratio(float64(w.delta.wal.WALAppends), anns))
	l.set("wal.log_bytes_per_ann_byte", ratio(float64(w.logBytes), float64(w.textBytes)))
	l.set("wal.group_commit_batch", ratio(float64(w.delta.wal.Commits), float64(w.delta.wal.Fsyncs)))

	clf := db.Classifier("ClassBird1")
	if clf == nil {
		return fmt.Errorf("no ClassBird1 classifier")
	}
	// The TextSummary1 snippet instance: LSA above 1,000 characters,
	// snippets of at most 400.
	summarizer := lsa.Summarizer{MaxChars: 400, Concepts: 3, MinChars: 1000}
	var texts, long []ingestItem
	for _, items := range w.plan.items {
		for _, it := range items {
			if len(texts) < 256 {
				texts = append(texts, it)
			}
			if len(it.Text) > 1000 && len(long) < 32 {
				long = append(long, it)
			}
		}
	}
	for _, it := range texts {
		root := t.newRequest("ingest")
		t.call("mining.bayes_classify", root, func() { _ = clf.Classify(it.Text) })
		t.end(root)
	}
	for _, it := range long {
		root := t.newRequest("ingest_long")
		t.call("mining.lsa_summarize", root, func() { _ = summarizer.Summarize(it.Text) })
		t.end(root)
	}
	for i, it := range texts[:min(32, len(texts))] {
		root := t.newRequest("ingest_durable")
		var a *model.Annotation
		var err error
		t.call("engine.add_annotation", root, func() {
			a, err = db.AddAnnotation("Birds", it.OID, it.Text, nil, fmt.Sprintf("perfbench-trace-%d", i))
		})
		t.end(root)
		if err != nil {
			return err
		}
		w.acks = append(w.acks, ack{oid: it.OID, id: a.ID})
	}
	means := t.selfMeans()
	l.set("mining.bayes_classify_us", means["mining.bayes_classify"])
	if len(long) > 0 {
		l.set("mining.lsa_summarize_us", means["mining.lsa_summarize"])
	} else {
		l.skip("no annotation above 1,000 characters in the plan", "mining.lsa_summarize_us")
	}
	l.set("engine.add_annotation_us", means["engine.add_annotation"])
	return nil
}

// traceAnalytic is the traced run of analytic_scans: each sampled
// statement is executed in process, replayed traced and bare as
// decomposed calls on the classic path (parse, build, optimize,
// compile, drain — no plan cache), and profiled per operator; the
// GROUP BY shape's groups are also merged with model.MergeSets.
func traceAnalytic(r *run, rep *report, db *engine.DB, shapes []*shape, win delta, stmts int) error {
	t := newTracer()
	l := newLayerSet()
	rt := &replayTimes{}
	prof := newOperatorProfile()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(r.seed*1000 + 9))

	var sample []string
	var sampleShape []*shape
	for _, s := range shapes {
		for i := 0; i < r.cfg.TraceSample; i++ {
			sample = append(sample, s.stmts[rng.Intn(len(s.stmts))])
			sampleShape = append(sampleShape, s)
		}
	}
	var strTime time.Duration
	var strRows int
	for i, q := range sample {
		s := sampleShape[i]
		for k := 0; k < traceRepeats; k++ {
			root := t.newRequest(s.name)
			var res *engine.Result
			err := rt.executeSpan(t, root, func() error {
				var err error
				res, err = db.QueryContext(ctx, q, nil)
				return err
			})
			if err != nil {
				return err
			}
			chain, rows, err := rt.chainPair(t, root, k, func(t *tracer, parent int) ([]*exec.Row, error) {
				return decomposed(t, parent, db, chainCall{text: q})
			})
			if err != nil {
				return err
			}
			rt.hitPath = append(rt.hitPath, childTime(t, chain,
				[]string{"sql.parse", "plan.build", "optimizer.optimize", "optimizer.compile", "exec.drain"}))
			rep.attempted++
			if err := s.check(q, &engine.Result{Rows: rows}); err != nil {
				rep.fail("%s: decomposed replay: %v", s.name, err)
			}
			for _, row := range res.Rows {
				if set := row.Tuple.Summaries; len(set) > 0 {
					t0 := time.Now()
					_ = set.String()
					strTime += time.Since(t0)
					strRows++
				}
			}
		}
		if err := prof.add(db, s.name, q); err != nil {
			return err
		}
	}
	allocsPerStmt(l, len(sample), func(i int) { _, _ = db.QueryContext(ctx, sample[i], nil) })
	for name, us := range t.selfMeans() {
		switch name {
		case "sql.parse", "plan.build", "optimizer.optimize", "optimizer.compile", "exec.drain":
			l.set(name+"_us", us)
		}
	}
	if strRows > 0 {
		l.set("model.summary_string_us", float64(strTime.Nanoseconds())/float64(strRows)/1e3)
	}
	if err := traceMerge(l, rep, db, shapes[len(shapes)-1], rng); err != nil {
		return err
	}
	rt.emit(l, rep)
	prof.emit(l, rep)
	probeSummaryBTree(l, db)
	windowLayers(l, win, stmts)
	l.skip("embedded API: no HTTP front-end", "server.roundtrip_overhead_us", "server.encode_us", "server.response_bytes")
	l.skip("the classic query path does not consult the plan cache",
		"sql.normalize_us", "sql.bind_us", "optimizer.rebind_us", "optimizer.plancache_hit_ratio")
	l.skip("analytic_scans writes nothing", "index.sbtree_rekeys_per_ann", "mining.bayes_classify_us",
		"mining.lsa_summarize_us", "engine.add_annotation_us", "wal.fsyncs_per_ann", "wal.appends_per_ann",
		"wal.log_bytes_per_ann_byte", "wal.group_commit_batch")

	path, err := t.write(traceDir, fmt.Sprintf("%s-seed%d.jsonl", rep.workload, r.seed))
	if err != nil {
		return err
	}
	rep.note("%d spans written to %s", len(t.spans), path)
	l.emit(rep)
	return nil
}

// traceMerge times model.MergeSets folded over the summary sets of one
// group of the GROUP BY shape, for a sample of its statements.
func traceMerge(l *layerSet, rep *report, db *engine.DB, group *shape, rng *rand.Rand) error {
	lookup := db.Catalog().Anns.Lookup()
	var total time.Duration
	var groups int
	sizes := map[int]int{}
	for i := 0; i < 4; i++ {
		q := group.stmts[rng.Intn(len(group.stmts))]
		// The shape's filter alone yields the rows each group merges.
		where := q[strings.Index(q, "WHERE"):strings.Index(q, "GROUP BY")]
		res, err := db.Query("SELECT r.family FROM Birds r "+where, nil)
		if err != nil {
			return err
		}
		byFamily := map[string][]model.SummarySet{}
		for _, row := range res.Rows {
			fam := row.Tuple.Values[0].Text
			byFamily[fam] = append(byFamily[fam], row.Tuple.Summaries)
		}
		for _, sets := range byFamily {
			t0 := time.Now()
			var acc model.SummarySet
			for _, s := range sets {
				acc = model.MergeSets(acc, s, lookup)
			}
			total += time.Since(t0)
			groups++
			sizes[len(sets)]++
		}
	}
	l.set("model.merge_us", float64(total.Nanoseconds())/float64(groups)/1e3)
	rep.note("merged %d groups; group sizes (size:count) %v", groups, sizes)
	return nil
}
