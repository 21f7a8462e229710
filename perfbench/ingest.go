package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/workload"
)

// durableConfig is `insightnotesd -wal DIR` with every other flag at its
// default.
func durableConfig(dir string) engine.Config {
	return engine.Config{PageCap: daemonPageCap, PlanCacheSize: daemonPlanCache, WALDir: dir}
}

// buildDurableDB generates the served data set with internal/workload's
// generator and loads it into a fresh durable database: schema and
// summary instances as workload.Build defines them, then every bird with
// its annotations in transactions of 200 birds, the Summary-BTree, and a
// checkpoint so recovery replays only what the workload adds.
func buildDurableDB(seed int64, birds, anns int) (*engine.DB, string, error) {
	ds, err := workload.Build(workload.Config{Seed: seed, Birds: birds,
		AvgAnnotationsPerBird: anns, SkipSynonyms: true})
	if err != nil {
		return nil, "", err
	}
	defer ds.DB.Close()
	dir, err := os.MkdirTemp("", "perfbench-wal-")
	if err != nil {
		return nil, "", err
	}
	db, err := engine.Open(durableConfig(dir))
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	if err := loadDurable(db, ds); err != nil {
		db.Close()
		os.RemoveAll(dir)
		return nil, "", err
	}
	return db, dir, nil
}

func loadDurable(db *engine.DB, ds *workload.Dataset) error {
	if _, err := db.CreateTable("Birds", workload.BirdsSchema()); err != nil {
		return err
	}
	if err := db.DefineClassifier("ClassBird1", workload.Categories, workload.TrainingSet()); err != nil {
		return err
	}
	if err := db.DefineSnippet("TextSummary1", 1000, 400); err != nil {
		return err
	}
	for _, inst := range []string{"ClassBird1", "TextSummary1"} {
		if err := db.LinkInstance("Birds", inst, false); err != nil {
			return err
		}
	}
	src, err := ds.DB.Table("Birds")
	if err != nil {
		return err
	}
	const birdsPerTxn = 200
	tx := db.Begin()
	for i, oid := range ds.Birds {
		tu, ok := src.Get(oid)
		if !ok {
			tx.Rollback()
			return fmt.Errorf("generated bird %d missing", oid)
		}
		newOID, err := tx.Insert("Birds", tu.Values...)
		if err != nil {
			tx.Rollback()
			return err
		}
		for _, a := range ds.DB.Annotations(oid) {
			if _, err := tx.AddAnnotation("Birds", newOID, a.Text, nil, a.Author); err != nil {
				tx.Rollback()
				return err
			}
		}
		if (i+1)%birdsPerTxn == 0 || i == len(ds.Birds)-1 {
			if err := tx.Commit(); err != nil {
				return err
			}
			tx = db.Begin()
		}
	}
	tx.Rollback() // the empty transaction opened after the last commit
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		return err
	}
	if ok, err := db.Checkpoint(); err != nil || !ok {
		return fmt.Errorf("checkpoint after load: ok=%v err=%v", ok, err)
	}
	return nil
}

// ingestItem is one annotation of an ingest request.
type ingestItem struct {
	OID  int64  `json:"oid"`
	Text string `json:"text"`
}

// ingestPlan is the pre-generated open-loop request sequence.
type ingestPlan struct {
	bodies [][]byte
	items  [][]ingestItem
}

// planIngest generates n requests of batch annotations each with
// internal/workload's text generator: labels uniform over the
// classifier's categories, longFraction of texts above 1,000 characters.
func planIngest(seed int64, n, batch, birds int, longFraction float64) (*ingestPlan, error) {
	rng := rand.New(rand.NewSource(seed*7919 + 11))
	p := &ingestPlan{}
	for i := 0; i < n; i++ {
		items := make([]ingestItem, batch)
		for j := range items {
			label := workload.Categories[rng.Intn(len(workload.Categories))]
			items[j] = ingestItem{
				OID:  int64(1 + rng.Intn(birds)),
				Text: workload.AnnotationText(rng, label, rng.Float64() < longFraction),
			}
		}
		b, err := json.Marshal(map[string]any{"table": "Birds", "author": "perfbench",
			"tenant": benchTenant, "items": items})
		if err != nil {
			return nil, err
		}
		p.bodies = append(p.bodies, b)
		p.items = append(p.items, items)
	}
	return p, nil
}

// ack is one acknowledged annotation.
type ack struct{ oid, id int64 }

// ingestOutcome is what the ingest connection observed.
type ingestOutcome struct {
	lat, late latencies // from due time to response; send time minus due time
	acks      []ack
	windowAnn int64 // annotations acknowledged for requests due in the window
	windowB   int64 // their text bytes
	attempted int64
	failed    []string
}

// ingestLoop posts the plan's requests in an open loop: request i is due
// at start + i/rate whatever happened to earlier ones; it is sent at its
// due time or, when the previous response is late, as soon as that
// arrives, and its latency counts from the due time.
func ingestLoop(c *httpClient, plan *ingestPlan, rate float64, start, from, until time.Time) *ingestOutcome {
	o := &ingestOutcome{}
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < len(plan.bodies); i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.After(until) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		status, body, err := c.post("/v1/annotations", plan.bodies[i])
		done := time.Now()
		o.attempted++
		if err == nil && status != http.StatusCreated {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
		}
		var resp struct {
			IDs []int64 `json:"annotation_ids"`
		}
		if err == nil {
			err = json.Unmarshal(body, &resp)
		}
		if err == nil && len(resp.IDs) != len(plan.items[i]) {
			err = fmt.Errorf("%d ids for %d annotations", len(resp.IDs), len(plan.items[i]))
		}
		if err != nil {
			o.failed = append(o.failed, fmt.Sprintf("ingest request %d: %v", i, err))
			continue
		}
		inWindow := !due.Before(from)
		for j, id := range resp.IDs {
			it := plan.items[i][j]
			o.acks = append(o.acks, ack{oid: it.OID, id: id})
			if inWindow {
				o.windowAnn++
				o.windowB += int64(len(it.Text))
			}
		}
		if inWindow {
			o.lat = o.lat.add(done.Sub(due))
			o.late = o.late.add(sent.Sub(due))
		}
	}
	return o
}

// ingestReadCheck validates a read served while annotations arrive: the
// answer changes under the reader, so instead of an oracle every
// returned row must satisfy the statement's predicates on the summary
// counts it was returned with (and top-k rows must be in order).
func ingestReadCheck(mix *readMix) readCheck {
	return func(q readReq, body []byte) error {
		_, w, err := canonicalWire(body, true)
		if err != nil {
			return err
		}
		type key struct {
			count int
			id    int64
		}
		var prev *key
		for i, raw := range w.Rows {
			var vals []any
			if err := json.Unmarshal(raw, &vals); err != nil {
				return err
			}
			if i >= len(w.Summaries) {
				return fmt.Errorf("row %d has no summaries", i)
			}
			counts, ok := labelCounts(w.Summaries[i])
			if !ok {
				return fmt.Errorf("row %d: unparsable summary %q", i, w.Summaries[i])
			}
			id := int64(vals[0].(float64))
			p := q.params
			switch q.kind {
			case 0:
				if int64(counts["Disease"]) != p[0].Int {
					return fmt.Errorf("row %d: Disease=%d", id, counts["Disease"])
				}
			case 1:
				if a := int64(counts["Anatomy"]); a < p[0].Int || a > p[1].Int {
					return fmt.Errorf("row %d: Anatomy=%d", id, a)
				}
			case 2:
				if mix.family[id] != p[0].Text || i >= 5 {
					return fmt.Errorf("row %d: family %s, position %d", id, mix.family[id], i)
				}
				k := key{counts["Disease"], id}
				if prev != nil && (k.count > prev.count || (k.count == prev.count && k.id < prev.id)) {
					return fmt.Errorf("rows out of order at %d", id)
				}
				prev = &k
			case 3:
				if int64(vals[2].(float64)) != p[0].Int || int64(counts["Behavior"]) < p[1].Int {
					return fmt.Errorf("row %d: wingspan %v Behavior=%d", id, vals[2], counts["Behavior"])
				}
			}
		}
		return nil
	}
}

// summaryBattery runs every prepared read of the mix's domain plus a
// dump of all birds with their summaries, in process, and returns the
// canonical answers.
func summaryBattery(db *engine.DB, mix *readMix) ([]string, error) {
	var out []string
	for _, q := range mix.all() {
		if !servedKinds[q.kind].prepared {
			continue
		}
		res, err := runInProcess(context.Background(), db, q, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, canonicalResult(res, servedKinds[q.kind].ordered))
	}
	res, err := db.Query("SELECT id FROM Birds r", nil)
	if err != nil {
		return nil, err
	}
	return append(out, canonicalResult(res, false)), nil
}

func runIngestUnderReads(r *run) (*report, error) {
	c := r.cfg.Ingest
	rep := &report{workload: "ingest_under_reads"}

	var setups []time.Duration
	var db *engine.DB
	var ep *endpoint
	var dir string
	for i := 0; i < r.cfg.SetupRepeats; i++ {
		if ep != nil {
			ep.stop()
			db.Close()
			os.RemoveAll(dir)
		}
		t0 := time.Now()
		var err error
		if db, dir, err = buildDurableDB(r.seed, c.Birds, c.AnnsPerBird); err != nil {
			return nil, err
		}
		if ep, err = serve(db); err != nil {
			db.Close()
			os.RemoveAll(dir)
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	defer os.RemoveAll(dir)
	heap := heapMiB()

	mix, err := newReadMix(db, r.cfg.Served.Mix)
	if err != nil {
		ep.stop()
		db.Close()
		return nil, err
	}
	span := r.warmup + r.window
	n := int(math.Ceil(c.RatePerS*span.Seconds())) + 1
	plan, err := planIngest(r.seed, n, c.Batch, c.Birds, c.LongFraction)
	if err != nil {
		ep.stop()
		db.Close()
		return nil, err
	}

	readClient := newHTTPClient(ep.base)
	ingestClient := newHTTPClient(ep.base)
	defer readClient.close()
	defer ingestClient.close()
	sess, err := openSession(readClient, mix)
	if err != nil {
		ep.stop()
		db.Close()
		return nil, err
	}

	idx := db.SummaryIndex("Birds", "ClassBird1")
	start := time.Now()
	from := start.Add(r.warmup)
	until := from.Add(r.window)
	var reads *readOutcome
	var ing *ingestOutcome
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(r.seed * 1000))
		reads = readLoop(sess, mix, rng, from, until, ingestReadCheck(mix))
	}()
	go func() {
		defer wg.Done()
		ing = ingestLoop(ingestClient, plan, c.RatePerS, start, from, until)
	}()
	time.Sleep(time.Until(from))
	before := snapshot(db, idx)
	walBytes0 := dirBytes(dir)
	wg.Wait()
	win := snapshot(db, idx).sub(before)
	walBytes := dirBytes(dir) - walBytes0

	readLat := reads.merge(rep)
	rep.attempted += ing.attempted
	for _, f := range ing.failed {
		rep.fail("%s", f)
	}
	if ing.attempted < int64(c.RatePerS*span.Seconds())-1 {
		rep.fail("open loop sent %d of %d due requests", ing.attempted, int(c.RatePerS*span.Seconds()))
	}
	if len(readLat) == 0 || len(ing.lat) == 0 {
		ep.stop()
		db.Close()
		return nil, fmt.Errorf("no read or ingest completed in the window")
	}
	readPerS := reads.done.median()
	setup := medianSeconds(setups)
	// The gated median is the reads', as on served_reads: real fsync on
	// a shared machine made the ingest median swing 6-14 ms between runs
	// of the same code, and the reads are what the ingest costs.
	var readP50s []float64
	for k, l := range reads.perKind {
		if len(l) == 0 {
			ep.stop()
			db.Close()
			return nil, fmt.Errorf("no %s read completed in the window", servedKinds[k].name)
		}
		readP50s = append(readP50s, quantile(l, 0.5))
	}
	rep.detail = append(rep.detail,
		metric{name: "setup_s", unit: "s", value: setup},
		metric{name: "heap_mb", unit: "MiB", value: heap},
		metric{name: "read_per_s", unit: "1/s", value: readPerS},
		metric{name: "ingest_ann_per_s", unit: "1/s", value: float64(ing.windowAnn) / r.window.Seconds()})
	rep.summarize("read", readLat)
	rep.summarize("ingest", ing.lat)
	rep.summarize("ingest_lateness", ing.late)
	rep.e2e = e2eMetrics(setup, heap, geomean(readP50s))
	rep.note("p50_ms is the geometric mean of the four read kinds' medians beside the ingest")
	rep.note("setup repeats %v", setups)
	rep.note("offered %.1f ingest requests/s of %d annotations; sent %d", c.RatePerS, c.Batch, ing.attempted)
	win.describe(rep)

	if r.trace {
		w := &walWindow{delta: win, anns: ing.windowAnn, textBytes: ing.windowB, logBytes: walBytes, plan: plan}
		if err := traceServed(r, rep, db, ep, mix, win, len(readLat), w); err != nil {
			ep.stop()
			db.Close()
			return nil, err
		}
		ing.acks = append(ing.acks, w.acks...)
	}

	checkLabelSums(rep, db, ing.acks)
	ep.stop()
	recovery, err := checkDurability(rep, db, dir, mix, ing.acks)
	if err != nil {
		return nil, err
	}
	rep.detail = append(rep.detail, metric{name: "recovery_s", unit: "s", value: recovery})
	return rep, nil
}

// walWindow carries the ingest window's write-path counters to the
// traced run, and the traced run's own acknowledged annotations back.
type walWindow struct {
	delta     delta
	anns      int64
	textBytes int64
	logBytes  int64
	plan      *ingestPlan
	acks      []ack
}

// checkLabelSums checks every annotated bird: its classifier label
// counts must sum to its annotation count.
func checkLabelSums(rep *report, db *engine.DB, acks []ack) {
	birds, err := db.Table("Birds")
	if err != nil {
		rep.fail("label sums: %v", err)
		return
	}
	seen := map[int64]bool{}
	for _, a := range acks {
		if seen[a.oid] {
			continue
		}
		seen[a.oid] = true
		rep.attempted++
		obj := birds.GetSummaries(a.oid).Get("ClassBird1")
		sum := 0
		if obj != nil {
			sum = obj.TotalCount()
		}
		if n := len(db.Annotations(a.oid)); sum != n {
			rep.fail("bird %d: classifier counts sum to %d over %d annotations", a.oid, sum, n)
		}
	}
}

// checkDurability closes the database, reopens its WAL directory, and
// checks that every acknowledged annotation is present and the summary
// battery answers as before the close. It returns the time from close
// to the first answered query after reopening.
func checkDurability(rep *report, db *engine.DB, dir string, mix *readMix, acks []ack) (float64, error) {
	want, err := summaryBattery(db, mix)
	if err != nil {
		db.Close()
		return 0, err
	}
	t0 := time.Now()
	if err := db.Close(); err != nil {
		return 0, fmt.Errorf("close: %w", err)
	}
	db2, err := engine.Open(durableConfig(dir))
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	defer db2.Close()
	if _, err := db2.Query("SELECT id FROM Birds r WHERE r.id = 1", nil); err != nil {
		return 0, fmt.Errorf("first query after reopen: %w", err)
	}
	recovery := time.Since(t0).Seconds()

	present := map[int64]map[int64]bool{}
	for _, a := range acks {
		if present[a.oid] == nil {
			present[a.oid] = map[int64]bool{}
			for _, ann := range db2.Annotations(a.oid) {
				present[a.oid][ann.ID] = true
			}
		}
		rep.attempted++
		if !present[a.oid][a.id] {
			rep.fail("acknowledged annotation %d on bird %d lost after reopen", a.id, a.oid)
		}
	}
	got, err := summaryBattery(db2, mix)
	if err != nil {
		return 0, err
	}
	for i := range want {
		rep.attempted++
		if got[i] != want[i] {
			rep.fail("summary query %d answers differently after reopen", i)
		}
	}
	return recovery, nil
}

// dirBytes totals the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir) // an unreadable directory counts as empty
	for _, e := range entries {
		if info, err := os.Stat(filepath.Join(dir, e.Name())); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
