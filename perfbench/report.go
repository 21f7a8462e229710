package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/pager"
)

// metric is one named measurement. note marks a per-layer metric the
// workload does not exercise ("n/a: <reason>"); its value is then 0.
type metric struct {
	name  string
	unit  string
	value float64
	note  string
}

// report collects a run's outcome. e2e holds the metrics BENCHMARK.json
// gates on (every workload reports all of them); detail holds the
// end-to-end metrics named per workload, printed for readers;
// layers holds the per-layer metrics of a traced run.
type report struct {
	workload  string
	attempted int64
	failed    int64
	problems  []string // first few failure descriptions
	e2e       []metric
	detail    []metric
	layers    []metric
	notes     []string
}

const maxProblems = 8

// fail records one failed or wrong operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) layer(name, unit string, value float64) {
	r.layers = append(r.layers, metric{name: name, unit: unit, value: value})
}

// na records a per-layer metric the workload does not exercise.
func (r *report) na(name, unit, reason string) {
	r.layers = append(r.layers, metric{name: name, unit: unit, note: "n/a: " + reason})
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the readable report, then the JSON result line last.
func (r *report) print(w io.Writer, traced bool) {
	fmt.Fprintf(w, "workload %s: attempted=%d failed=%d error_rate=%.6f\n",
		r.workload, r.attempted, r.failed, r.errorRate())
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	fmt.Fprintln(w, "end-to-end:")
	for _, m := range r.detail {
		fmt.Fprintf(w, "  %-26s %14.4f %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(w, "  %-26s %14.6f %s\n", "error_rate", r.errorRate(), "share")
	fmt.Fprintln(w, "gated (BENCHMARK.json end_to_end):")
	for _, m := range r.e2e {
		fmt.Fprintf(w, "  %-26s %14.4f %s\n", m.name, m.value, m.unit)
	}
	if traced {
		fmt.Fprintln(w, "per-layer (traced replay):")
		for _, m := range r.layers {
			if m.note != "" {
				fmt.Fprintf(w, "  %-34s %14s %-6s %s\n", m.name, "-", m.unit, m.note)
				continue
			}
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", m.name, m.value, m.unit)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}

	out := jsonResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]jsonMetric{}}
	src := r.e2e
	if traced {
		src = r.layers
	}
	for _, m := range src {
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	b, _ := json.Marshal(out) // plain structs of numbers and strings always encode
	fmt.Fprintln(w, string(b))
}

func (r *report) errorRate() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// tailPercentile is the highest of p99, p95 and p90 that has at least
// ten samples beyond it.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90} {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

// latencies is one stream's per-operation times in milliseconds.
type latencies []float64

func (l latencies) add(d time.Duration) latencies {
	return append(l, float64(d)/float64(time.Millisecond))
}

// summarize adds name_p50_ms and name_pXX_ms (the highest percentile
// with ten samples beyond it) to the readable report.
func (r *report) summarize(name string, l latencies) {
	if len(l) == 0 {
		r.note("%s: no samples", name)
		return
	}
	r.detail = append(r.detail, metric{name: name + "_p50_ms", unit: "ms", value: quantile(l, 0.5)})
	if p := tailPercentile(len(l)); p > 50 {
		r.detail = append(r.detail, metric{name: fmt.Sprintf("%s_p%s_ms", name, strings.TrimSuffix(fmt.Sprint(p), ".0")),
			unit: "ms", value: quantile(l, p/100)})
	}
	r.note("%s: %d samples", name, len(l))
}

// perSecond counts completions in each whole second of a measured
// window; its median is a throughput a brief stall cannot drag down.
type perSecond struct {
	from   time.Time
	counts []float64
}

func newPerSecond(from time.Time, window time.Duration) *perSecond {
	return &perSecond{from: from, counts: make([]float64, int(window/time.Second))}
}

func (p *perSecond) add(done time.Time) {
	if i := int(done.Sub(p.from) / time.Second); i >= 0 && i < len(p.counts) {
		p.counts[i]++
	}
}

// merge adds q's counts into p; both cover the same window.
func (p *perSecond) merge(q *perSecond) {
	for i, c := range q.counts {
		p.counts[i] += c
	}
}

func (p *perSecond) median() float64 {
	return quantile(append([]float64(nil), p.counts...), 0.5)
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// heapMiB forces a collection and returns the live heap in MiB.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// counters is a snapshot of the engine's public counters and the Go
// runtime's, taken before and after a measured window.
type counters struct {
	at        time.Time
	metrics   engine.Metrics
	sbtreeOps int64
	pool      pager.BufferPoolStats
	mem       runtime.MemStats
}

func snapshot(db *engine.DB, idx *index.SummaryBTree) counters {
	c := counters{at: time.Now(), metrics: db.Metrics()}
	if idx != nil {
		c.sbtreeOps = idx.UpdateOps()
	}
	if p := db.BufferPool(); p != nil {
		c.pool = p.Stats()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// delta is the difference of two snapshots.
type delta struct {
	seconds   float64
	io        pager.Stats
	wal       engine.WALMetrics
	cacheHits int64
	cacheMiss int64
	sbtreeOps int64
	numGC     uint32
	allocMiB  float64
	queries   int64
	pool      pager.BufferPoolStats // at the end of the window
}

func (b counters) sub(a counters) delta {
	d := delta{
		seconds:   b.at.Sub(a.at).Seconds(),
		io:        b.metrics.IO.Sub(a.metrics.IO),
		sbtreeOps: b.sbtreeOps - a.sbtreeOps,
		numGC:     b.mem.NumGC - a.mem.NumGC,
		allocMiB:  float64(b.mem.TotalAlloc-a.mem.TotalAlloc) / (1 << 20),
		queries:   b.metrics.Queries - a.metrics.Queries,
		pool:      b.pool,
	}
	if b.metrics.WAL != nil && a.metrics.WAL != nil {
		d.wal = engine.WALMetrics{
			WALAppends:         b.metrics.WAL.WALAppends - a.metrics.WAL.WALAppends,
			Fsyncs:             b.metrics.WAL.Fsyncs - a.metrics.WAL.Fsyncs,
			Commits:            b.metrics.WAL.Commits - a.metrics.WAL.Commits,
			GroupCommitBatches: b.metrics.WAL.GroupCommitBatches - a.metrics.WAL.GroupCommitBatches,
		}
	}
	if b.metrics.PlanCache != nil && a.metrics.PlanCache != nil {
		d.cacheHits = b.metrics.PlanCache.Hits - a.metrics.PlanCache.Hits
		d.cacheMiss = b.metrics.PlanCache.Misses - a.metrics.PlanCache.Misses
	}
	return d
}

// describe prints the window's counter deltas for readers.
func (d delta) describe(r *report) {
	r.note("window counters: %.2fs queries=%d io{%s} plancache hits=%d misses=%d sbtree_ops=%d gc=%d alloc=%.1fMiB wal{appends=%d fsyncs=%d commits=%d batches=%d} pool{frames=%d resident=%d max_resident=%d}",
		d.seconds, d.queries, d.io, d.cacheHits, d.cacheMiss, d.sbtreeOps, d.numGC, d.allocMiB,
		d.wal.WALAppends, d.wal.Fsyncs, d.wal.Commits, d.wal.GroupCommitBatches,
		d.pool.Frames, d.pool.Resident, d.pool.MaxResident)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianSeconds is the median of a set of set-up durations in seconds.
func medianSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return quantile(xs, 0.5)
}
