package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	samplealign "repro"
	"repro/internal/bio"
	"repro/internal/core"
	"repro/internal/dpkern"
	"repro/internal/fasta"
	"repro/internal/kmer"
	"repro/internal/msa"
	"repro/internal/obs"
	"repro/internal/rose"
	"repro/internal/serve"
	"repro/internal/submat"
)

// distGenome is the paper's Fig. 6 shape: 2000 proteins sampled from a
// synthetic archaeal genome (mean length ~316), decomposed over 2 ranks.
// Every distributed stage does real work; the proteins are mostly
// unrelated, which also drives the striped DP kernels' escape path.
var distGenome = workload{
	name: "dist-genome2000", ranks: 2, workers: 1, jobs: 1,
	run: pipeline{p: 2, workers: 1, generate: genomeInput}.run,
}

// seqFamily is the sequential baseline: a 2000-member ROSE family at
// p=1, where core skips decompose, mpi and the merge stages and both
// cores go to the sequential engine's workers. ROSE's true alignment
// gives the exact Q score.
var seqFamily = workload{
	name: "seq-family2000", ranks: 1, workers: 2, jobs: 1,
	run: pipeline{p: 1, workers: 2, generate: familyInput}.run,
}

// input is one generated pipeline input; truth is nil when the
// generator knows no true alignment.
type input struct {
	seqs  []bio.Sequence
	truth *rose.Family
}

func genomeInput(seed int64) (input, error) {
	seqs, err := samplealign.SampleGenomeProteins(samplealign.GenomeConfig{
		TargetBP: 5_000_000, MeanProteinLen: 316, Seed: 2008,
	}, 2000, seed)
	return input{seqs: seqs}, err
}

func familyInput(seed int64) (input, error) {
	fam, err := rose.Evolve(rose.Config{N: 2000, MeanLen: 300, Relatedness: 800, Seed: seed})
	if err != nil {
		return input{}, err
	}
	return input{seqs: fam.Seqs(), truth: fam}, nil
}

// pipeline runs core.AlignInprocContext in this process on one
// generated input.
type pipeline struct {
	p, workers int
	generate   func(seed int64) (input, error)
}

// setupRepeats is how many times a run measures set-up; setup_s is the
// median.
const setupRepeats = 9

func (pl pipeline) run(ctx context.Context, e env) (*outcome, error) {
	in, err := pl.generate(e.seed)
	if err != nil {
		return nil, fmt.Errorf("generating input: %w", err)
	}
	path := filepath.Join(e.dir, "input.fa")
	if err := fasta.WriteFile(path, in.seqs); err != nil {
		return nil, err
	}

	// Set-up: the input parsed and the configuration resolved, as the
	// samplealign CLI does before aligning.
	var setups []float64
	var seqs []bio.Sequence
	var cfg core.Config
	for range setupRepeats {
		runtime.GC()
		t0 := time.Now()
		seqs, err = fasta.ReadFile(path)
		if err != nil {
			return nil, err
		}
		cfg = resolvedOptions(pl.p, pl.workers).CoreConfig()
		setups = append(setups, time.Since(t0).Seconds())
	}

	out := &outcome{metrics: make(map[string]float64)}
	if e.traced {
		return out, pl.traced(ctx, e, seqs, in, cfg, out)
	}

	// Timed runs: whole alignments, untraced, until the next one would
	// overrun the measurement time (at least one).
	var walls, cpus []float64
	start := time.Now()
	for {
		// Start every alignment from a collected heap, so one run's
		// garbage does not shift the next one's GC cycles.
		runtime.GC()
		cpu0 := cpuSeconds()
		t0 := time.Now()
		res, err := core.AlignInprocContext(ctx, seqs, pl.p, cfg)
		wall := time.Since(t0).Seconds()
		cpu := cpuSeconds() - cpu0
		out.attempted++
		if err != nil {
			out.fail("alignment: %v", err)
			break
		}
		if err := checkAlignment(seqs, res.Alignment); err != nil {
			out.fail("%v", err)
		}
		walls = append(walls, wall)
		cpus = append(cpus, cpu)
		if time.Since(start).Seconds()+wall > e.seconds.Seconds() {
			break
		}
	}
	elapsed := 0.0
	for _, w := range walls {
		elapsed += w
	}
	out.note("alignments=%d wall_s=%.4f cpu_s=%.4f", len(walls), walls, cpus)
	out.metrics["wall_s"] = median(walls)
	out.metrics["cpu_s"] = median(cpus)
	out.metrics["setup_s"] = median(setups)
	out.metrics["peak_rss_mb"] = peakRSSMB()
	out.metrics["throughput_jobs_per_s"] = float64(len(walls)) / elapsed
	return out, nil
}

// traced aligns the input twice, untraced then traced, and reports the
// traced run's per-layer breakdown plus the tracing overhead.
func (pl pipeline) traced(ctx context.Context, e env, seqs []bio.Sequence, in input, cfg core.Config, out *outcome) error {
	runtime.GC()
	t0 := time.Now()
	plain, err := core.AlignInprocContext(ctx, seqs, pl.p, cfg)
	untracedWall := time.Since(t0).Seconds()
	out.attempted++
	if err != nil {
		out.fail("alignment: %v", err)
		return nil
	}
	if err := checkAlignment(seqs, plain.Alignment); err != nil {
		out.fail("%v", err)
	}

	tr := obs.New(obs.Options{ID: "perfbench"})
	runtime.GC()
	tally0 := dpkern.TallySnapshot()
	t0 = time.Now()
	res, err := core.AlignInprocContext(obs.WithTracer(ctx, tr), seqs, pl.p, cfg)
	tracedWall := time.Since(t0).Seconds()
	tally := dpkern.TallySnapshot().Sub(tally0)
	out.attempted++
	if err != nil {
		out.fail("traced alignment: %v", err)
		return nil
	}
	if err := checkAlignment(seqs, res.Alignment); err != nil {
		out.fail("traced: %v", err)
	}
	doc := tr.Document()
	if doc.DroppedSpans > 0 {
		return fmt.Errorf("trace dropped %d spans", doc.DroppedSpans)
	}
	layers := summarize(doc)
	if layers == nil {
		return fmt.Errorf("trace holds no rank span")
	}
	for k, v := range layers {
		out.metrics[k] = v
	}
	setKernelTally(out.metrics, tally)
	out.metrics["obs.tracing_overhead"] = tracedWall/untracedWall - 1

	// Quality, outside every timed region: sum-of-pairs over a seeded
	// sample of row pairs, and Q against the generator's true alignment
	// over a seeded sample of rows where one exists.
	out.metrics["msa.sp_score"] = msa.SPScoreSampled(res.Alignment, submat.BLOSUM62, submat.DefaultProteinGap, 2000, e.seed)
	if in.truth != nil {
		rows := rand.New(rand.NewSource(e.seed)).Perm(len(seqs))[:100]
		sort.Ints(rows)
		ref, err := in.truth.TrueAlignment(rows)
		if err != nil {
			return err
		}
		q, err := msa.QScore(res.Alignment, ref)
		if err != nil {
			out.fail("qscore: %v", err)
		}
		out.metrics["msa.qscore"] = q
	}
	return nil
}

// resolvedOptions is the option set the job service resolves for
// procs/workers with every other option at its default; CoreConfig turns
// it into the core.Config the service runs.
func resolvedOptions(procs, workers int) serve.Resolved {
	return serve.Resolved{
		Procs: procs, Workers: workers, Aligner: "muscle", K: kmer.DefaultK,
		Kernel: dpkern.Auto.String(),
	}
}

func setKernelTally(m map[string]float64, t dpkern.Tally) {
	m["dpkern.striped_calls"] = float64(t.Striped)
	m["dpkern.escape_calls"] = float64(t.Escaped)
	if calls := t.Striped + t.Escaped; calls > 0 {
		m["dpkern.escape_ratio"] = float64(t.Escaped) / float64(calls)
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is this process's high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return maxrssMB(&ru)
}

// maxrssMB converts ru_maxrss, which Linux reports in KiB.
func maxrssMB(ru *syscall.Rusage) float64 { return float64(ru.Maxrss) / 1024 }
