package main

import (
	"bytes"
	"context"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bio"
	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/msa"
)

func TestReportRequiresEveryDeclaredMetric(t *testing.T) {
	out := &outcome{attempted: 1, metrics: map[string]float64{}}
	for _, s := range endToEnd {
		out.metrics[s.name] = 1
	}
	if _, err := report(out, endToEnd, true); err != nil {
		t.Fatalf("complete metrics refused: %v", err)
	}
	out.metrics["wall_s"] = 0
	if _, err := report(out, endToEnd, true); err == nil {
		t.Error("a zero end-to-end metric was accepted")
	}
	delete(out.metrics, "wall_s")
	if _, err := report(out, endToEnd, true); err == nil {
		t.Error("a missing metric was accepted")
	}
	if res, err := report(&outcome{attempted: 1}, perLayer, false); err != nil || res.Metrics["serve.run_mean_ms"].Value != 0 {
		t.Errorf("a layer the workload does not run: %v, %v", res.Metrics["serve.run_mean_ms"], err)
	}
	out.metrics["wall_s"] = 1
	out.fail("bad row")
	res, err := report(out, endToEnd, true)
	if err != nil || res.Correct {
		t.Errorf("failed job: correct = %v, err = %v", res.Correct, err)
	}
}

func TestHostGuard(t *testing.T) {
	for _, w := range workloads {
		if w.ranks*w.workers*w.jobs > 2 {
			t.Errorf("%s needs %d cores; every workload must fit 2", w.name, w.ranks*w.workers*w.jobs)
		}
	}
	// A workload needing more cores than the host has is refused before
	// it runs.
	wide := workload{name: "wide", ranks: 1 << 20, workers: 1, jobs: 1}
	workloads = append(workloads, wide)
	defer func() { workloads = workloads[:len(workloads)-1] }()
	var stdout, stderr strings.Builder
	if code := run([]string{"-workload", "wide", "-work-dir", t.TempDir()}, &stdout, &stderr); code == 0 {
		t.Errorf("oversized workload ran: %s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "nproc") {
		t.Errorf("refusal does not name nproc: %q", stderr.String())
	}
}

func TestCheckAlignment(t *testing.T) {
	in := []bio.Sequence{{ID: "a", Data: []byte("ACDE")}, {ID: "b", Data: []byte("ACE")}}
	good := &msa.Alignment{Seqs: []bio.Sequence{{ID: "a", Data: []byte("ACDE")}, {ID: "b", Data: []byte("AC-E")}}}
	if err := checkAlignment(in, good); err != nil {
		t.Fatal(err)
	}
	bad := map[string]*msa.Alignment{
		"row dropped": {Seqs: good.Seqs[:1]},
		"ids swapped": {Seqs: []bio.Sequence{good.Seqs[1], good.Seqs[0]}},
		"ragged":      {Seqs: []bio.Sequence{good.Seqs[0], {ID: "b", Data: []byte("ACE")}}},
		"residue":     {Seqs: []bio.Sequence{good.Seqs[0], {ID: "b", Data: []byte("AC-D")}}},
	}
	for name, aln := range bad {
		if checkAlignment(in, aln) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTailLatency(t *testing.T) {
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := tailLatency(xs); math.Abs(got-0.95*399) > 1e-9 {
		t.Errorf("p95 of 0..399 = %v", got)
	}
	// 100 samples: p90 is the highest percentile with ten beyond it.
	if got := tailLatency(xs[:100]); math.Abs(got-0.9*99) > 1e-9 {
		t.Errorf("tail of 0..99 = %v", got)
	}
	if got := tailLatency([]float64{3, 1}); got != 3 {
		t.Errorf("tail of two samples = %v, want the slowest", got)
	}
}

func TestParseMetrics(t *testing.T) {
	text := "# HELP x y\n# TYPE x counter\nsamplealign_cache_hits_total 4\n" +
		`samplealign_job_queue_wait_seconds_sum{outcome="dispatched"} 0.25` + "\n"
	got, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got["samplealign_cache_hits_total"] != 4 || got[`samplealign_job_queue_wait_seconds_sum{outcome="dispatched"}`] != 0.25 {
		t.Errorf("parsed %v", got)
	}
	if _, err := parseMetrics(strings.NewReader("name " + strconv.Quote("x") + "\n")); err == nil {
		t.Error("malformed value accepted")
	}
}

func TestMixIsSeededWithAFixedRepeatShare(t *testing.T) {
	order := func(seed int64) []int {
		m := newMix(seed)
		var idx []int
		for range 100 {
			i, _, err := m.next()
			if err != nil {
				t.Fatal(err)
			}
			idx = append(idx, i)
		}
		return idx
	}
	a, b := order(5), order(5)
	if !slices.Equal(a, b) {
		t.Fatalf("same seed, different request order:\n%v\n%v", a, b)
	}
	if slices.Equal(a, order(6)) {
		t.Error("different seeds gave the same request order")
	}
	// Every block of ten after the first (whose repeats may find nothing
	// sent yet) repeats exactly three earlier inputs.
	seen := map[int]bool{}
	for blk := 0; blk < 10; blk++ {
		repeats := 0
		for _, i := range a[blk*10 : blk*10+10] {
			if seen[i] {
				repeats++
			}
			seen[i] = true
		}
		if blk > 0 && repeats != 3 {
			t.Errorf("block %d has %d repeats, want 3", blk, repeats)
		}
	}
}

func TestVerifierCatchesADifferingAnswer(t *testing.T) {
	_, in, err := newMix(1).next()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.AlignInproc(in.fam.Seqs(), serviceProcs, resolvedOptions(serviceProcs, 1).CoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	right := []byte(fasta.FormatString(res.Alignment.Seqs))
	wrong := bytes.Replace(right, []byte("-"), []byte("."), 1)

	v := newVerifier()
	v.add(in, right)
	v.add(in, wrong)
	out := &outcome{metrics: map[string]float64{}}
	v.check(context.Background(), out)
	if out.failed != 1 {
		t.Errorf("failed = %d (%v), want only the differing answer", out.failed, out.problems)
	}
	if q := out.metrics["msa.qscore"]; q <= 0 || q > 1 {
		t.Errorf("qscore = %v", q)
	}
}
