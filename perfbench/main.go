// Command perfbench is the repository benchmark. It generates one
// workload's inputs from a seed, runs the program on them for a fixed
// time, checks every output, and prints the metrics BENCHMARK.json
// declares: the end-to-end set with -trace 0, the per-layer set (from a
// separate traced run) with -trace 1. The last line of standard output
// is one JSON object {"correct", "attempted", "failed", "metrics"}.
//
// Run it through perfbench/run.sh from the repository root, which
// builds this command and samplealignsrv from source first:
//
//	bash perfbench/run.sh --workload seq-family2000 --seed 7 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// metricSpec is one declared metric: its name and unit in BENCHMARK.json.
type metricSpec struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees, in
// BENCHMARK.json order. Every workload reports every one, as "per job":
// a job is one alignment on the pipeline workloads and one request on
// service-mix.
var endToEnd = []metricSpec{
	{"wall_s", "s"},                  // median job wall time (service-mix: p50 request latency)
	{"cpu_s", "s"},                   // CPU seconds per job, of the process running the program
	{"setup_s", "s"},                 // median set-up time: input parsed and config resolved / server ready
	{"peak_rss_mb", "MB"},            // max RSS of the process running the program
	{"throughput_jobs_per_s", "1/s"}, // jobs completed per second of measured time
}

// perLayer lists the traced run's metrics, in BENCHMARK.json order. A
// layer a workload does not run reports 0 (see report).
var perLayer = []metricSpec{
	{"core.localrank_s", "s"},
	{"core.sample_s", "s"},
	{"core.pivot_s", "s"},
	{"core.exchange_s", "s"},
	{"core.bucketalign_max_s", "s"},
	{"core.bucketalign_imbalance", "ratio"},
	{"core.bucket_bound_ratio", "ratio"},
	{"core.ancestor_s", "s"},
	{"core.finetune_s", "s"},
	{"core.glue_s", "s"},
	{"core.slowest_rank_wall_s", "s"},
	{"core.stage_self_coverage", "ratio"},
	{"msa.distmatrix_s", "s"},
	{"msa.guidetree_s", "s"},
	{"msa.progressive_s", "s"},
	{"msa.mergenode_s", "s"},
	{"msa.sp_score", "score"},
	{"msa.qscore", "ratio"},
	{"kmer.rank_pairs", "count"},
	{"kmer.distance_pairs", "count"},
	{"dpkern.striped_calls", "count"},
	{"dpkern.escape_calls", "count"},
	{"dpkern.escape_ratio", "ratio"},
	{"mpi.bytes_sent", "B"},
	{"mpi.msgs_sent", "count"},
	{"serve.queue_wait_mean_ms", "ms"},
	{"serve.run_mean_ms", "ms"},
	{"serve.overhead_mean_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.latency_p95_ms", "ms"},
	{"store.journal_fsyncs_per_request", "fsyncs/req"},
	{"store.journal_records_per_fsync", "records/fsync"},
	{"store.journal_bytes", "B/req"},
	{"store.results_bytes", "B/req"},
	{"obs.tracing_overhead", "ratio"},
}

// runDeadline keeps a run inside the harness's 180 s limit whatever
// -seconds says: every workload honours the context.
const runDeadline = 170 * time.Second

// env is what a workload run gets from the command line.
type env struct {
	seed      int64
	seconds   time.Duration
	traced    bool
	dir       string // scratch directory for this run, removed afterwards
	serverBin string
}

// outcome is what a workload run measured. failed counts jobs whose
// output failed a check or that errored; problems says why. notes are
// printed ahead of the metrics.
type outcome struct {
	attempted, failed int
	problems, notes   []string
	metrics           map[string]float64
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workload is one benchmark input family. ranks × workers × jobs is the
// number of cores it keeps busy; the host guard refuses to run it on
// fewer.
type workload struct {
	name                 string
	ranks, workers, jobs int
	run                  func(ctx context.Context, e env) (*outcome, error)
}

var workloads = []workload{distGenome, seqFamily, serviceMix}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: dist-genome2000, seq-family2000 or service-mix")
	seed := fs.Int64("seed", 1, "input generation seed")
	secs := fs.Int("seconds", 10, "measurement time")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	workDir := fs.String("work-dir", ".bench_build/work", "directory for per-run scratch files")
	serverBin := fs.String("server-bin", ".bench_build/samplealignsrv", "samplealignsrv binary (service-mix)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds >= 1, -trace 0|1\n", workloadNames())
		return 2
	}

	nproc := runtime.NumCPU()
	fmt.Fprintf(stdout, "host nproc=%d GOMAXPROCS=%d go=%s\n", nproc, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(stdout, "workload=%s seed=%d seconds=%d trace=%d ranks=%d workers=%d jobs=%d\n",
		w.name, *seed, *secs, *trace, w.ranks, w.workers, w.jobs)
	if cores := w.ranks * w.workers * w.jobs; cores > nproc {
		fmt.Fprintf(stderr, "perfbench: %s keeps %d cores busy (ranks %d × workers %d × jobs %d) but nproc is %d\n",
			w.name, cores, w.ranks, w.workers, w.jobs, nproc)
		return 2
	}

	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workDir, w.name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	out, err := w.run(ctx, env{
		seed: *seed, seconds: time.Duration(*secs) * time.Second, traced: *trace == 1,
		dir: dir, serverBin: *serverBin,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	specs := endToEnd
	if *trace == 1 {
		specs = perLayer
	}
	res, err := report(out, specs, *trace == 0)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, p := range out.problems {
		fmt.Fprintln(stdout, "check failed:", p)
	}
	for _, s := range specs {
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", s.name, res.Metrics[s.name].Value, s.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report selects the declared metrics from a run's outcome. An
// end-to-end metric the run did not produce, or that is not positive, is
// a benchmark bug; a per-layer metric it did not produce belongs to a
// layer the workload does not run and reads 0.
func report(out *outcome, specs []metricSpec, endToEnd bool) (*result, error) {
	res := &result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	var errs []error
	for _, s := range specs {
		v, ok := out.metrics[s.name]
		switch {
		case endToEnd && !ok:
			errs = append(errs, fmt.Errorf("metric %s not measured", s.name))
		case math.IsNaN(v) || math.IsInf(v, 0):
			errs = append(errs, fmt.Errorf("metric %s = %v", s.name, v))
		case endToEnd && v <= 0:
			errs = append(errs, fmt.Errorf("metric %s = %v, want > 0", s.name, v))
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return res, errors.Join(errs...)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
