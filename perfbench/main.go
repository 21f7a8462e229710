// Command perfbench is the repository's benchmark. It drives the engine
// through its public interfaces on one of three workloads, checks every
// answer, and prints its metrics: a human-readable report, then one JSON
// line as the last line of standard output.
//
//	bash perfbench/run.sh --workload served_reads --seed 1 --seconds 15 --trace 0
//
// Workloads (sizes, rates and engine settings live in workloads.json):
//
//   - served_reads: two closed-loop HTTP connections running prepared
//     summary statements and ad-hoc queries against cmd/insightnotesd's
//     default configuration.
//   - ingest_under_reads: a durable database; one connection posts
//     annotation batches in an open loop at a fixed rate while a second
//     runs the served_reads mix.
//   - analytic_scans: one client on the embedded API cycling through four
//     paper-shaped analytic queries over a buffer pool a quarter the size
//     of the data.
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1
// the run is followed by a quiescent traced replay whose per-layer
// metrics the JSON carries instead (see trace.go).
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

//go:embed workloads.json
var workloadsJSON []byte

// config is the part of workloads.json the benchmark reads.
type config struct {
	SetupRepeats  int     `json:"setup_repeats"`
	WarmupSeconds float64 `json:"warmup_seconds"`
	TraceSample   int     `json:"trace_sample"`
	Served        struct {
		Birds       int            `json:"birds"`
		AnnsPerBird int            `json:"annotations_per_bird"`
		Clients     int            `json:"clients"`
		Mix         map[string]int `json:"mix"`
	} `json:"served_reads"`
	Ingest struct {
		Birds        int     `json:"birds"`
		AnnsPerBird  int     `json:"annotations_per_bird"`
		Batch        int     `json:"ingest_batch"`
		RatePerS     float64 `json:"ingest_rate_per_s"`
		LongFraction float64 `json:"long_annotation_fraction"`
	} `json:"ingest_under_reads"`
	Analytic struct {
		Birds       int `json:"birds"`
		AnnsPerBird int `json:"annotations_per_bird"`
		SynsPerBird int `json:"synonyms_per_bird"`
		PoolFrames  int `json:"pool_frames"`
	} `json:"analytic_scans"`
}

// run is one benchmark invocation.
type run struct {
	cfg    config
	seed   int64
	window time.Duration
	warmup time.Duration
	trace  bool
}

func main() {
	workloadName := flag.String("workload", "", "served_reads, ingest_under_reads or analytic_scans")
	seed := flag.Int64("seed", 1, "seed for data and request generation")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 = follow the run with the traced replay and report per-layer metrics")
	flag.Parse()

	var cfg config
	if err := json.Unmarshal(workloadsJSON, &cfg); err != nil {
		fail(fmt.Errorf("parsing workloads.json: %w", err))
	}
	if *seconds < 1 {
		fail(fmt.Errorf("--seconds must be at least 1"))
	}
	r := &run{
		cfg:    cfg,
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		warmup: time.Duration(cfg.WarmupSeconds * float64(time.Second)),
		trace:  *trace == 1,
	}

	var rep *report
	var err error
	switch *workloadName {
	case "served_reads":
		rep, err = runServedReads(r)
	case "ingest_under_reads":
		rep, err = runIngestUnderReads(r)
	case "analytic_scans":
		rep, err = runAnalyticScans(r)
	default:
		err = fmt.Errorf("unknown --workload %q (want served_reads, ingest_under_reads or analytic_scans)", *workloadName)
	}
	if err != nil {
		fail(err)
	}
	rep.print(os.Stdout, r.trace)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
