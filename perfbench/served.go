package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/workload"
)

// readOutcome is what one connection's closed read loop observed.
type readOutcome struct {
	lat       latencies   // reads sent inside the measured window
	perKind   []latencies // the same, by statement kind
	done      *perSecond  // their completions per second
	attempted int64
	failed    []string
}

// readCheck validates one served answer.
type readCheck func(q readReq, body []byte) error

// readLoop runs a closed loop of mix reads on one session until the
// deadline: each read is sent when the previous response has been read
// to its last byte. Reads sent from `from` on are timed.
func readLoop(s *session, mix *readMix, rng *rand.Rand, from, until time.Time, check readCheck) *readOutcome {
	o := &readOutcome{perKind: make([]latencies, len(servedKinds)), done: newPerSecond(from, until.Sub(from))}
	for time.Now().Before(until) {
		q := mix.next(rng)
		t0 := time.Now()
		status, body, err := s.read(q)
		d := time.Since(t0)
		o.attempted++
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
		}
		if err == nil {
			err = check(q, body)
		}
		if err != nil {
			o.failed = append(o.failed, fmt.Sprintf("%s %v: %v", servedKinds[q.kind].name, q.params, err))
			continue
		}
		if !t0.Before(from) {
			o.lat = o.lat.add(d)
			o.perKind[q.kind] = o.perKind[q.kind].add(d)
			o.done.add(t0.Add(d))
		}
	}
	return o
}

// merge folds a connection's outcome into the report and returns its
// timed reads.
func (o *readOutcome) merge(rep *report) latencies {
	rep.attempted += o.attempted
	for _, f := range o.failed {
		rep.fail("%s", f)
	}
	return o.lat
}

// buildServedDB generates and loads the served data exactly as
// `insightnotesd -birds N -anns A` does, then builds the Summary-BTree
// the Figure 10 and 11 statements probe.
func buildServedDB(seed int64, birds, anns int) (*engine.DB, error) {
	ds, err := workload.Build(workload.Config{
		Seed:                  seed,
		Birds:                 birds,
		AvgAnnotationsPerBird: anns,
		SkipSynonyms:          true,
		PlanCacheSize:         daemonPlanCache,
	})
	if err != nil {
		return nil, err
	}
	if err := ds.DB.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		ds.DB.Close()
		return nil, err
	}
	return ds.DB, nil
}

// servedOracle maps every read of the mix's domain to its canonical
// answer, computed in process on the classic path with the plan cache
// out of the loop.
func servedOracle(db *engine.DB, mix *readMix) (map[string]string, error) {
	out := map[string]string{}
	for _, q := range mix.all() {
		res, err := runInProcess(context.Background(), db, q, nil)
		if err != nil {
			return nil, fmt.Errorf("oracle %s %v: %w", servedKinds[q.kind].name, q.params, err)
		}
		out[q.key] = canonicalResult(res, servedKinds[q.kind].ordered)
	}
	return out, nil
}

func runServedReads(r *run) (*report, error) {
	c := r.cfg.Served
	rep := &report{workload: "served_reads"}

	// Set up several times and report the median; keep the last.
	var setups []time.Duration
	var db *engine.DB
	var ep *endpoint
	for i := 0; i < r.cfg.SetupRepeats; i++ {
		if ep != nil {
			ep.stop()
			db.Close()
		}
		t0 := time.Now()
		var err error
		if db, err = buildServedDB(r.seed, c.Birds, c.AnnsPerBird); err != nil {
			return nil, err
		}
		if ep, err = serve(db); err != nil {
			db.Close()
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	defer db.Close()
	defer ep.stop()
	heap := heapMiB()

	mix, err := newReadMix(db, c.Mix)
	if err != nil {
		return nil, err
	}
	oracle, err := servedOracle(db, mix)
	if err != nil {
		return nil, err
	}
	// Each connection remembers the bodies it has already verified, so
	// a byte-identical answer is checked by its hash and the client
	// spends its CPU decoding only answers it has not seen.
	newCheck := func() readCheck {
		verified := map[string]map[uint64]bool{}
		return func(q readReq, body []byte) error {
			h := fnv.New64a()
			h.Write(body)
			sum := h.Sum64()
			if verified[q.key][sum] {
				return nil
			}
			got, _, err := canonicalWire(body, servedKinds[q.kind].ordered)
			if err != nil {
				return err
			}
			if got != oracle[q.key] {
				return fmt.Errorf("answer differs from the in-process oracle")
			}
			if verified[q.key] == nil {
				verified[q.key] = map[uint64]bool{}
			}
			verified[q.key][sum] = true
			return nil
		}
	}

	sessions := make([]*session, c.Clients)
	for i := range sessions {
		cl := newHTTPClient(ep.base)
		defer cl.close()
		if sessions[i], err = openSession(cl, mix); err != nil {
			return nil, err
		}
	}

	idx := db.SummaryIndex("Birds", "ClassBird1")
	from := time.Now().Add(r.warmup)
	until := from.Add(r.window)
	outcomes := make([]*readOutcome, len(sessions))
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.seed*1000 + int64(i)))
			outcomes[i] = readLoop(s, mix, rng, from, until, newCheck())
		}(i, s)
	}
	time.Sleep(time.Until(from))
	before := snapshot(db, idx)
	wg.Wait()
	win := snapshot(db, idx).sub(before)

	var lat latencies
	perKind := make([]latencies, len(servedKinds))
	done := newPerSecond(from, r.window)
	for _, o := range outcomes {
		lat = append(lat, o.merge(rep)...)
		for k, l := range o.perKind {
			perKind[k] = append(perKind[k], l...)
		}
		done.merge(o.done)
	}
	var p50s []float64
	for k, l := range perKind {
		if len(l) == 0 {
			return nil, fmt.Errorf("no %s read completed in the window", servedKinds[k].name)
		}
		p50s = append(p50s, quantile(l, 0.5))
		rep.summarize(servedKinds[k].name, l)
	}
	perS := done.median()
	setup := medianSeconds(setups)

	rep.detail = append(rep.detail,
		metric{name: "setup_s", unit: "s", value: setup},
		metric{name: "heap_mb", unit: "MiB", value: heap},
		metric{name: "read_per_s", unit: "1/s", value: perS})
	rep.summarize("read", lat)
	rep.e2e = e2eMetrics(setup, heap, geomean(p50s))
	rep.note("p50_ms is the geometric mean of the four statement kinds' medians")
	rep.note("setup repeats %v", setups)
	win.describe(rep)

	if r.trace {
		if err := traceServed(r, rep, db, ep, mix, win, len(lat), nil); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// e2eMetrics is the gated metric set every workload reports: set-up
// time, live heap, and the median latency of the workload's statements.
// Tail percentiles and throughput are printed, not gated: on the shared
// 2-core machine the benchmark was tuned on they moved by 15-40%
// between runs of the same code, where medians moved by about 10%.
func e2eMetrics(setup, heap, p50 float64) []metric {
	return []metric{
		{name: "setup_s", unit: "s", value: setup},
		{name: "heap_mb", unit: "MiB", value: heap},
		{name: "p50_ms", unit: "ms", value: p50},
	}
}
