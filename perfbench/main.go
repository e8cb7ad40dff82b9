// Command perfbench is the repository's benchmark: one workload per run,
// end-to-end metrics from untraced runs, per-layer metrics from a traced
// run whose spans bracket the calls into each layer's public functions.
// See README.md for the workloads, the metrics and what each should move.
//
//	perfbench -workload commit -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it carries the
// run record (box, Go version, sync policy, cache sizes, CPU steal) and the
// workload's own figures by name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload in untraced runs. What an operation is depends on the workload
// (README.md): a committed insert (commit), an as-of read (rewind), a TPC-C
// transaction beside the as-of loop (tpcc_asof), a transaction replayed by
// crash recovery (recovery).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mib", "MiB"},
}

// perLayer are reported by every workload in traced runs; a layer that a
// workload does not reach reads 0.
var perLayer = []metricDef{
	{"engine.txn_body_us", "us"},
	{"engine.commit_call_us", "us"},
	{"engine.deadlock_retries_per_ktxn", "count"},
	{"engine.checkpoint_ms", "ms"},
	{"engine.checkpoints_per_ktxn", "count"},
	{"wal.commits_per_flush", "count"},
	{"wal.appends_per_txn", "count"},
	{"wal.undo_reads_per_query", "count"},
	{"buffer.hit_ratio", "frac"},
	{"buffer.writebacks_per_ktxn", "count"},
	{"asof.resolve_ms", "ms"},
	{"asof.create_ms", "ms"},
	{"asof.undo_wait_ms", "ms"},
	{"asof.records_undone_per_page", "count"},
	{"asof.pages_prepared_per_scan", "count"},
	{"asof.image_restores_per_page", "count"},
	{"asof.warm_lookup_us", "us"},
	{"asof.side_pages_per_snapshot", "count"},
	{"recovery.redo_mib", "MiB"},
	{"recovery.mib_per_s", "MiB/s"},
	{"recovery.pages_read", "count"},
	{"trace.overhead_frac", "frac"},
	{"trace.coverage_frac", "frac"},
}

type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	dir     string // scratch directory for the run's databases
	// rounds is how many times the run sets up: each round measures its
	// share of the time on a database of its own.
	rounds int
}

// workloads run one workload each. They return their result also with an
// error, which fails the run.
var workloads = map[string]func(runConfig) (*workloadResult, error){
	"commit":    runCommit,
	"rewind":    runRewind,
	"tpcc_asof": runTPCCAsOf,
	"recovery":  runRecovery,
}

func main() {
	workload := flag.String("workload", "", "commit, rewind, tpcc_asof or recovery")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured time")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/data", "directory for databases and the span dump")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *workload)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, rounds: 3,
		dir: filepath.Join(*workdir, fmt.Sprintf("%s-%d", *workload, os.Getpid()))}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	steal := startSteal()
	res, err := run(cfg)
	os.RemoveAll(cfg.dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		res.fail(err.Error())
	}
	if cfg.trace {
		sum := res.trace.summarize()
		res.setTraceMetrics(sum)
		path := filepath.Join(*workdir, "trace-"+*workload+".tsv")
		if err := res.trace.write(path, sum); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
	for _, m := range res.mismatches {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", m)
	}

	defs, values := endToEnd, res.endToEnd()
	if cfg.trace {
		defs, values = perLayer, res.layer
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		metrics[d.name] = map[string]any{"value": values[d.name], "unit": d.unit}
	}
	emit(map[string]any{"workload": *workload, "seed": *seed, "trace": *trace,
		"record": runRecord(res, steal.share()), "figures": res.figures})
	correct := len(res.mismatches) == 0 && res.failed == 0
	emit(map[string]any{"correct": correct, "attempted": res.attempted,
		"failed": res.failed, "metrics": metrics})
	if !correct {
		os.Exit(1)
	}
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps of numbers and strings are marshalled
	}
	fmt.Println(string(b))
}

// workloadResult is what one workload run measured. Operations are
// counted per arm: [traced][loop], where loop is the as-of loop of
// tpcc_asof (always false elsewhere).
type workloadResult struct {
	attempted, failed int64
	mismatches        []string

	setups []float64 // seconds per set-up; the run sets up several times
	ops    [2][2]float64
	time   [2][2]time.Duration
	lat    [2][2][]float64 // operation latencies, µs
	// cpu is the process CPU time of the measured phases, cpuOps the
	// operations done in them.
	cpu    time.Duration
	cpuOps float64
	// headlineLoop selects the arm whose rate and latency are the
	// end-to-end operation metrics.
	headlineLoop bool

	figures map[string]float64 // the workload's figures by name, with units in the name
	layer   map[string]float64 // per-layer metrics
	config  map[string]any     // run record: sizes and policies
	trace   *tracer
}

func newResult() *workloadResult {
	return &workloadResult{figures: map[string]float64{}, layer: map[string]float64{}, config: map[string]any{}}
}

// check records a correctness failure; a run with any fails.
func (r *workloadResult) check(ok bool, format string, args ...any) {
	if !ok {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
		r.failed++
	}
}

func (r *workloadResult) fail(msg string) {
	r.mismatches = append(r.mismatches, msg)
	r.failed++
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (r *workloadResult) rate(traced, loop bool) float64 {
	t, l := b2i(traced), b2i(loop)
	return ratio(r.ops[t][l], r.time[t][l].Seconds())
}

// endToEnd computes the end-to-end metrics. The operations' p99 goes on
// the record line only: on a box with CPU steal it spreads past any bound
// between runs (up to 0.37 of its median across ten seeds).
func (r *workloadResult) endToEnd() map[string]float64 {
	l := b2i(r.headlineLoop)
	lat := r.lat[0][l]
	r.figures["op_p99_us"] = quantile(lat, 0.99)
	return map[string]float64{
		"setup_s":       median(append([]float64(nil), r.setups...)),
		"ops_per_s":     r.rate(false, r.headlineLoop),
		"op_p50_us":     quantile(lat, 0.50),
		"cpu_us_per_op": ratio(us(r.cpu), r.cpuOps),
		"peak_rss_mib":  peakRSSMiB(),
	}
}

// setTraceMetrics derives the span-based per-layer metrics and the trace's
// own overhead and coverage.
func (r *workloadResult) setTraceMetrics(s traceSummary) {
	p50 := func(k spanKind) float64 { return median(s.durs[k]) }
	r.layer["engine.txn_body_us"] = p50(spBody)
	r.layer["engine.commit_call_us"] = p50(spCommit)
	r.layer["asof.resolve_ms"] = p50(spResolve) / 1e3
	r.layer["asof.undo_wait_ms"] = p50(spWaitUndo) / 1e3
	r.layer["asof.warm_lookup_us"] = p50(spWarmGet)
	if _, ok := r.layer["engine.checkpoint_ms"]; !ok {
		r.layer["engine.checkpoint_ms"] = p50(spCheckpoint) / 1e3
	}
	r.layer["asof.create_ms"] = p50(spCreate) / 1e3
	var untracedOps, tracedOps float64
	var untracedT, tracedT time.Duration
	for l := 0; l < 2; l++ {
		untracedOps += r.ops[0][l]
		untracedT += r.time[0][l]
		tracedOps += r.ops[1][l]
		tracedT += r.time[1][l]
	}
	r.layer["trace.overhead_frac"] = 1 - ratio(ratio(tracedOps, tracedT.Seconds()), ratio(untracedOps, untracedT.Seconds()))
	r.layer["trace.coverage_frac"] = ratio(float64(s.covered), float64(s.active))
	r.figures["trace.spans"] = float64(s.spans)
	for k, name := range spanNames {
		if s.self[k] > 0 {
			r.figures["self_ms."+name] = s.self[k] / 1e3
		}
	}
}

// windowWidth is the length of one measurement window. Arms alternate
// window by window within a run, so drift of the box touches every arm
// alike.
const windowWidth = 250 * time.Millisecond

// schedule assigns each window of a measured interval to an arm: traced or
// not (traced runs only), and for tpcc_asof, as-of loop on or off.
type schedule struct {
	start       time.Time
	cpu0        time.Duration // process CPU time at the start
	trace, loop bool
}

func newSchedule(trace, loop bool) *schedule {
	return &schedule{start: time.Now(), cpu0: cpuTime(), trace: trace, loop: loop}
}

// addCPU adds the process CPU time since the start, and the operations
// done in it, to r.
func (s *schedule) addCPU(r *workloadResult, ops float64) {
	r.cpu += cpuTime() - s.cpu0
	r.cpuOps += ops
}

func (s *schedule) window(t time.Time) int { return int(t.Sub(s.start) / windowWidth) }

func (s *schedule) traced(w int) bool { return s.trace && w%2 == 1 }

func (s *schedule) loopOn(w int) bool {
	if !s.loop {
		return false
	}
	if s.trace {
		return w/2%2 == 1
	}
	return w%2 == 1
}

// addArmTime adds the time of [s.start, end) to r.time, split by arm.
func (s *schedule) addArmTime(r *workloadResult, end time.Time) {
	for w := 0; ; w++ {
		from := s.start.Add(time.Duration(w) * windowWidth)
		if !from.Before(end) {
			return
		}
		d := min(windowWidth, end.Sub(from))
		r.time[b2i(s.traced(w))][b2i(s.loopOn(w))] += d
	}
}
