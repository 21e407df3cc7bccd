package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/msa"
	"repro/internal/obs"
	"repro/internal/rose"
	"repro/internal/submat"
)

// serviceMix drives samplealignsrv (journal and result store on, one job
// aligning at a time on 2 ranks) over loopback HTTP with a closed loop
// of serviceClients clients posting small families to /v1/align: about
// 70% new inputs (journal writes and a result-store put) and 30% repeats
// of an input sent earlier in the run (cache-hit reads).
var serviceMix = workload{
	name: "service-mix", ranks: serviceProcs, workers: 1, jobs: 1,
	run: runService,
}

const (
	serviceProcs   = 2
	serviceClients = 2
	familySize     = 48
	familyLen      = 200
)

func runService(ctx context.Context, e env) (*outcome, error) {
	out := &outcome{metrics: make(map[string]float64)}
	v := newVerifier()
	if e.traced {
		if err := tracedService(ctx, e, v, out); err != nil {
			return nil, err
		}
	} else if err := timedService(ctx, e, v, out); err != nil {
		return nil, err
	}
	v.check(ctx, out)
	return out, nil
}

// timedService boots the server setupRepeats times (set-up is the boot
// until /healthz answers; the last boot serves the run), then measures
// the untraced mix for the run's seconds.
func timedService(ctx context.Context, e env, v *verifier, out *outcome) error {
	var boots []float64
	var srv *server
	for i := range setupRepeats {
		s, err := startServer(ctx, e, fmt.Sprintf("boot%d", i), false)
		if err != nil {
			return err
		}
		boots = append(boots, s.boot.Seconds())
		if i == setupRepeats-1 {
			srv = s
		} else if _, err := s.stop(); err != nil {
			return err
		}
	}
	run, err := drive(ctx, srv, newMix(e.seed), e.seconds)
	ru, stopErr := srv.stop()
	if err != nil {
		return err
	}
	if stopErr != nil {
		return stopErr
	}
	run.record(v, out)
	lat := run.latencies()
	out.note("requests=%d answered=%d distinct_inputs=%d window_s=%.3f", len(run.samples), len(lat), len(run.mix.inputs), run.window)
	var deciles []float64
	for d := 1; d < 10; d++ {
		deciles = append(deciles, 1000*quantile(lat, float64(d)/10))
	}
	out.note("latency_deciles_ms=%.1f latency_p95_ms=%.1f", deciles, 1000*tailLatency(lat))
	perWindow := make([]int, int(run.window/2)+1)
	for _, smp := range run.samples {
		perWindow[int(smp.end/2)]++
	}
	out.note("answers_per_2s=%v", perWindow)
	if len(lat) == 0 {
		return nil
	}
	out.metrics["wall_s"] = median(lat)
	out.metrics["cpu_s"] = (tvSeconds(ru.Utime) + tvSeconds(ru.Stime)) / float64(len(lat))
	out.metrics["setup_s"] = median(boots)
	out.metrics["peak_rss_mb"] = maxrssMB(ru)
	out.metrics["throughput_jobs_per_s"] = float64(len(lat)) / run.window
	return nil
}

// tracedService runs the mix twice for half the run's seconds each, on
// fresh servers: untraced (serve and store layers from /metrics deltas)
// and traced (core, msa, kmer and mpi layers from the job traces). The
// throughput ratio of the two is the tracing overhead.
func tracedService(ctx context.Context, e env, v *verifier, out *outcome) error {
	half := e.seconds / 2
	plain, err := startServer(ctx, e, "untraced", false)
	if err != nil {
		return err
	}
	runA, err := drive(ctx, plain, newMix(e.seed), half)
	_, stopErr := plain.stop()
	if err = errors.Join(err, stopErr); err != nil {
		return err
	}
	runA.record(v, out)

	traced, err := startServer(ctx, e, "traced", true)
	if err != nil {
		return err
	}
	runB, err := drive(ctx, traced, newMix(e.seed), half)
	var layers map[string]float64
	if err == nil {
		layers, err = jobTraces(ctx, traced, runB)
	}
	_, stopErr = traced.stop()
	if err = errors.Join(err, stopErr); err != nil {
		return err
	}
	runB.record(v, out)

	for k, val := range layers {
		out.metrics[k] = val
	}
	// The kernel tallies are process-wide counters inside the server, so
	// dpkern.* stay unmeasured (0) here; the pipeline workloads measure
	// that layer.
	serviceLayers(runA, out.metrics)
	if a, b := len(runA.latencies()), len(runB.latencies()); a > 0 && b > 0 {
		out.metrics["obs.tracing_overhead"] = (float64(a)/runA.window)/(float64(b)/runB.window) - 1
	}
	return nil
}

// serviceLayers derives the serve and store layers from the /metrics
// deltas across one run.
func serviceLayers(r *mixRun, m map[string]float64) {
	d := func(series string) float64 { return r.after[series] - r.before[series] }
	lat := r.latencies()
	n := float64(len(lat))
	if n == 0 {
		return
	}
	qwSum, qwCount := d(`samplealign_job_queue_wait_seconds_sum{outcome="dispatched"}`), d(`samplealign_job_queue_wait_seconds_count{outcome="dispatched"}`)
	runSum, runCount := d("samplealign_job_run_seconds_sum"), d("samplealign_job_run_seconds_count")
	if qwCount > 0 {
		m["serve.queue_wait_mean_ms"] = 1000 * qwSum / qwCount
	}
	if runCount > 0 {
		m["serve.run_mean_ms"] = 1000 * runSum / runCount
	}
	var latSum float64
	for _, l := range lat {
		latSum += l
	}
	m["serve.overhead_mean_ms"] = 1000 * (latSum - qwSum - runSum) / n
	m["serve.latency_p95_ms"] = 1000 * tailLatency(lat)
	if hits, misses := d("samplealign_cache_hits_total"), d("samplealign_cache_misses_total"); hits+misses > 0 {
		m["serve.cache_hit_ratio"] = hits / (hits + misses)
	}
	fsyncs := d("samplealign_journal_fsyncs_total")
	m["store.journal_fsyncs_per_request"] = fsyncs / n
	if fsyncs > 0 {
		m["store.journal_records_per_fsync"] = d("samplealign_journal_flushed_records_total") / fsyncs
	}
	m["store.journal_bytes"] = d("samplealign_journal_bytes") / n
	m["store.results_bytes"] = d("samplealign_store_bytes") / n
}

// jobTraces fetches the trace of every job that computed (cache misses)
// and averages their per-layer summaries over those jobs.
func jobTraces(ctx context.Context, s *server, r *mixRun) (map[string]float64, error) {
	sum := make(map[string]float64)
	jobs := 0
	for _, smp := range r.samples {
		if smp.status != http.StatusOK || smp.cache != "miss" {
			continue
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/jobs/"+smp.jobID+"/trace", nil)
		if err != nil {
			return nil, err
		}
		resp, err := s.client.Do(req)
		if err != nil {
			return nil, fmt.Errorf("fetching trace of %s: %w", smp.jobID, err)
		}
		var doc obs.Document
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			return nil, fmt.Errorf("trace of %s: status %d, %v", smp.jobID, resp.StatusCode, err)
		}
		layers := summarize(&doc)
		if layers == nil {
			return nil, fmt.Errorf("trace of %s holds no rank span", smp.jobID)
		}
		for k, v := range layers {
			sum[k] += v
		}
		jobs++
	}
	if jobs == 0 {
		return nil, errors.New("no computed job to trace")
	}
	for k := range sum {
		sum[k] /= float64(jobs)
	}
	return sum, nil
}

// server is one samplealignsrv child process.
type server struct {
	cmd    *exec.Cmd
	done   chan error // Wait's result, once the process has exited
	base   string
	client *http.Client
	boot   time.Duration // start until /healthz answered
}

// startServer boots samplealignsrv on a fresh data directory and a free
// loopback port and waits until /healthz answers.
func startServer(ctx context.Context, e env, name string, traced bool) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(e.dir, name)
	logFile, err := os.Create(dataDir + ".log")
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	args := []string{
		"-addr", "127.0.0.1:" + strconv.Itoa(port), "-data-dir", dataDir,
		"-p", strconv.Itoa(serviceProcs), "-workers", "1", "-max-concurrent", "1",
	}
	if !traced {
		args = append(args, "-no-trace")
	}
	s := &server{
		cmd:  exec.Command(e.serverBin, args...),
		done: make(chan error, 1),
		base: "http://127.0.0.1:" + strconv.Itoa(port),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: serviceClients, MaxIdleConnsPerHost: serviceClients,
		}},
	}
	s.cmd.Stdout, s.cmd.Stderr = logFile, logFile
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", e.serverBin, err)
	}
	go func() { s.done <- s.cmd.Wait() }()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/healthz", nil)
		if err != nil {
			s.kill()
			return nil, err
		}
		if resp, err := s.client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.boot = time.Since(t0)
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("server exited during boot: %v (log %s)", err, logFile.Name())
		case <-ctx.Done():
			s.kill()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Since(t0) > 30*time.Second {
			s.kill()
			return nil, fmt.Errorf("server not healthy after 30s (log %s)", logFile.Name())
		}
	}
}

// stop shuts the server down gracefully (SIGINT), killing it if it has
// not exited within 20 s, and returns its resource usage.
func (s *server) stop() (*syscall.Rusage, error) {
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		s.kill()
		return nil, fmt.Errorf("signalling server: %w", err)
	}
	var err error
	select {
	case err = <-s.done:
	case <-time.After(20 * time.Second):
		s.kill()
		return nil, errors.New("server did not shut down within 20s")
	}
	if err != nil {
		return nil, fmt.Errorf("server exit: %w", err)
	}
	ru, _ := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return nil, errors.New("no resource usage for the server process")
	}
	return ru, nil
}

// kill ends the process and waits for it.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// mix is the seeded request order. Requests come in blocks of ten, of
// which a seeded choice of three repeat an input sent earlier in the
// run (picked uniformly) and the rest send a new ROSE family whose seed
// comes from the same stream: the repeat share is exactly 30% whatever
// the seed, so the cache-hit share does not move the run's throughput.
type mix struct {
	mu     sync.Mutex
	rng    *rand.Rand
	block  []int // seeded permutation of the current block's slots
	sent   int
	inputs []*svcInput
}

type svcInput struct {
	fam  *rose.Family
	body []byte // the request: the family as FASTA
}

const (
	mixBlock   = 10
	mixRepeats = 3 // per block: the 30% repeat share
)

func newMix(seed int64) *mix { return &mix{rng: rand.New(rand.NewSource(seed))} }

func (m *mix) next() (int, *svcInput, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sent%mixBlock == 0 {
		m.block = m.rng.Perm(mixBlock)
	}
	repeat := m.block[m.sent%mixBlock] < mixRepeats
	m.sent++
	if repeat && len(m.inputs) > 0 {
		i := m.rng.Intn(len(m.inputs))
		return i, m.inputs[i], nil
	}
	fam, err := rose.Evolve(rose.Config{N: familySize, MeanLen: familyLen, Relatedness: 800, Seed: m.rng.Int63()})
	if err != nil {
		return 0, nil, err
	}
	in := &svcInput{fam: fam, body: []byte(fasta.FormatString(fam.Seqs()))}
	m.inputs = append(m.inputs, in)
	return len(m.inputs) - 1, in, nil
}

// sample is one request's result.
type sample struct {
	input   int
	end     float64 // seconds from the window's start to the last response byte
	latency float64 // seconds, send to last response byte
	status  int     // 0: transport error
	err     error
	body    []byte
	cache   string // X-Cache
	jobID   string // X-Job-Id
}

// mixRun is one closed-loop run against one server.
type mixRun struct {
	mix           *mix
	samples       []sample
	window        float64 // seconds from first send to last response
	before, after map[string]float64
}

func (r *mixRun) latencies() []float64 {
	var out []float64
	for _, s := range r.samples {
		if s.status == http.StatusOK {
			out = append(out, s.latency)
		}
	}
	return out
}

// record counts the run's requests and hands every answered one to the
// verifier.
func (r *mixRun) record(v *verifier, out *outcome) {
	for _, s := range r.samples {
		out.attempted++
		switch {
		case s.err != nil:
			out.fail("request: %v", s.err)
		case s.status != http.StatusOK:
			out.fail("request: status %d: %s", s.status, bytes.TrimSpace(s.body))
		default:
			v.add(r.mix.inputs[s.input], s.body)
		}
	}
}

// drive runs the closed loop for d: each client sends its next request
// when the previous one has completed, and no client starts one after d.
func drive(ctx context.Context, s *server, m *mix, d time.Duration) (*mixRun, error) {
	r := &mixRun{mix: m}
	var err error
	if r.before, err = scrape(ctx, s); err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var genErr error
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for range serviceClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				idx, in, err := m.next()
				if err != nil {
					mu.Lock()
					genErr = err
					mu.Unlock()
					return
				}
				smp := post(ctx, s, in.body)
				smp.input = idx
				smp.end = time.Since(start).Seconds()
				mu.Lock()
				r.samples = append(r.samples, smp)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	r.window = time.Since(start).Seconds()
	if genErr != nil {
		return nil, fmt.Errorf("generating input: %w", genErr)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if r.after, err = scrape(ctx, s); err != nil {
		return nil, err
	}
	return r, nil
}

func post(ctx context.Context, s *server, body []byte) sample {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/align", bytes.NewReader(body))
	if err != nil {
		return sample{err: err}
	}
	req.Header.Set("Content-Type", "text/x-fasta")
	resp, err := s.client.Do(req)
	if err != nil {
		return sample{err: err}
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	return sample{
		latency: time.Since(t0).Seconds(),
		status:  resp.StatusCode,
		err:     err,
		body:    got,
		cache:   resp.Header.Get("X-Cache"),
		jobID:   resp.Header.Get("X-Job-Id"),
	}
}

// scrape reads /metrics into series → value; a series is the metric
// name with its label set, as printed.
func scrape(ctx context.Context, s *server) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// verifier holds every answered request until the measured part of the
// run is over, then checks each against the in-process pipeline. Answers
// are grouped by request body, so an input sent in both passes of a
// traced run is aligned once.
type verifier struct {
	answers map[string][][]byte
	order   []*svcInput
}

func newVerifier() *verifier { return &verifier{answers: make(map[string][][]byte)} }

func (v *verifier) add(in *svcInput, answer []byte) {
	key := string(in.body)
	if _, ok := v.answers[key]; !ok {
		v.order = append(v.order, in)
	}
	v.answers[key] = append(v.answers[key], answer)
}

// check is the server-smoke invariant, checked from the benchmark: every
// /v1/align answer is byte-identical to core.AlignInprocContext on the
// same input under the service's resolved options, and passes the
// pipeline output checks. It also records the outputs' mean quality:
// sum-of-pairs, and Q against the ROSE true alignment.
func (v *verifier) check(ctx context.Context, out *outcome) {
	cfg := resolvedOptions(serviceProcs, 1).CoreConfig()
	var sp, q float64
	for _, in := range v.order {
		res, err := core.AlignInprocContext(ctx, in.fam.Seqs(), serviceProcs, cfg)
		if err != nil {
			out.fail("reference alignment: %v", err)
			continue
		}
		want := []byte(fasta.FormatString(res.Alignment.Seqs))
		for _, got := range v.answers[string(in.body)] {
			if !bytes.Equal(got, want) {
				out.fail("/v1/align answer differs from the in-process alignment (%d vs %d bytes)", len(got), len(want))
			}
		}
		if err := checkAlignment(in.fam.Seqs(), res.Alignment); err != nil {
			out.fail("%v", err)
		}
		sp += msa.SPScore(res.Alignment, submat.BLOSUM62, submat.DefaultProteinGap, 1)
		truth, err := in.fam.TrueAlignment(nil)
		if err == nil {
			var qi float64
			qi, err = msa.QScore(res.Alignment, truth)
			q += qi
		}
		if err != nil {
			out.fail("qscore: %v", err)
		}
	}
	if n := float64(len(v.order)); n > 0 {
		out.metrics["msa.sp_score"] = sp / n
		out.metrics["msa.qscore"] = q / n
	}
}
