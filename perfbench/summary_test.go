package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
)

// span builds a SpanDoc from millisecond times; attrs alternate key,
// value.
func span(name string, startMs, endMs int64, attrs []string, children ...*obs.SpanDoc) *obs.SpanDoc {
	d := &obs.SpanDoc{Name: name, StartNs: startMs * 1e6, DurationNs: (endMs - startMs) * 1e6, Children: children}
	for i := 0; i+1 < len(attrs); i += 2 {
		d.Attrs = append(d.Attrs, obs.Attr{Key: attrs[i], Value: attrs[i+1]})
	}
	return d
}

func kv(kvs ...string) []string { return kvs }

// goldenDoc is a fixed two-rank trace. Rank 0 has the larger bucket and
// overlapping merge nodes; rank 1 is the slowest rank and spends most
// of its merge stage in the ancestor gather.
func goldenDoc() *obs.Document {
	rank0 := span("rank", 0, 10000, kv("rank", "0", "procs", "2", "bytes_sent", "100", "msgs_sent", "3"),
		span("decompose", 100, 3000, kv("bucket", "60"),
			span("localrank", 100, 2000, nil),
			span("sample", 2000, 2500, kv("pool", "8")),
			span("pivot", 2500, 2600, nil),
			span("exchange", 2600, 2900, nil)),
		span("bucketalign", 3000, 8000, kv("seqs", "60", "striped_calls", "5", "escape_calls", "7"),
			span("distmatrix", 3000, 4000, kv("n", "60")),
			span("guidetree", 4000, 4200, nil),
			span("progressive", 4200, 7800, nil,
				span("mergenode", 5000, 6000, nil),
				span("mergenode", 5500, 7000, nil))),
		span("merge", 8000, 10000, nil,
			span("ancestor", 8000, 9000, nil),
			span("finetune", 9000, 9500, nil),
			span("glue", 9500, 9900, nil)))
	rank1 := span("rank", 0, 10050, kv("rank", "1", "procs", "2", "bytes_sent", "200", "msgs_sent", "4"),
		span("decompose", 200, 3000, kv("bucket", "40"),
			span("localrank", 200, 1500, nil),
			span("sample", 1500, 2000, kv("pool", "8")),
			span("pivot", 2000, 2300, nil),
			span("exchange", 2300, 3000, nil)),
		span("bucketalign", 3000, 6000, kv("seqs", "40"),
			span("distmatrix", 3000, 3500, kv("n", "40")),
			span("guidetree", 3500, 3600, nil),
			span("progressive", 3600, 6000, nil)),
		span("merge", 6000, 10050, nil,
			span("ancestor", 6000, 9800, nil),
			span("finetune", 9800, 9900, nil),
			span("glue", 9900, 10000, nil)))
	return &obs.Document{TraceID: "golden", SpanCount: 33, Spans: []*obs.SpanDoc{rank1, rank0}}
}

var golden = map[string]float64{
	"core.localrank_s":           1.9, // rank 0
	"core.sample_s":              0.5,
	"core.pivot_s":               0.3, // rank 1
	"core.exchange_s":            0.7, // rank 1
	"core.bucketalign_max_s":     5.0,
	"core.bucketalign_imbalance": 1.25,          // 5 / mean(5, 3)
	"core.bucket_bound_ratio":    0.6,           // 60 / (2·100/2)
	"core.ancestor_s":            3.8,           // rank 1, gather wait included
	"core.finetune_s":            0.5,           // rank 0
	"core.glue_s":                0.4,           // rank 0
	"core.slowest_rank_wall_s":   10.05,         // rank 1
	"core.stage_self_coverage":   1 - 0.2/10.05, // rank 1's 200 ms before decompose is its own
	"msa.distmatrix_s":           1.0,
	"msa.guidetree_s":            0.2,
	"msa.progressive_s":          2.4,        // rank 1; rank 0's is 3.6 − the 2.0 s union of its merge nodes
	"msa.mergenode_s":            2.5,        // 1.0 + 1.5, overlap counted once per node
	"kmer.rank_pairs":            5800,       // 2 ranks × (50·50 + 50·8)
	"kmer.distance_pairs":        1770 + 780, // 60·59/2 + 40·39/2
	"mpi.bytes_sent":             300,
	"mpi.msgs_sent":              7,
}

func TestSummarizeGolden(t *testing.T) {
	got := summarize(goldenDoc())
	assertMetrics(t, got, golden)

	// A server trace nests the same rank spans under its "job" span.
	doc := goldenDoc()
	doc.Spans = []*obs.SpanDoc{span("job", 0, 10100, nil, doc.Spans...)}
	assertMetrics(t, summarize(doc), golden)
}

func TestSummarizeSingleRank(t *testing.T) {
	doc := &obs.Document{Spans: []*obs.SpanDoc{
		span("rank", 0, 4000, kv("rank", "0", "procs", "1"),
			span("bucketalign", 0, 4000, kv("seqs", "10"),
				span("distmatrix", 0, 3000, kv("n", "10")),
				span("progressive", 3000, 4000, nil))),
	}}
	got := summarize(doc)
	for _, k := range []string{"core.localrank_s", "core.ancestor_s", "kmer.rank_pairs", "mpi.bytes_sent"} {
		if got[k] != 0 {
			t.Errorf("%s = %v on a single-rank trace, want 0", k, got[k])
		}
	}
	if got["msa.distmatrix_s"] != 3 || got["kmer.distance_pairs"] != 45 || got["core.bucket_bound_ratio"] != 0.5 {
		t.Errorf("single rank: %v", got)
	}
	if summarize(&obs.Document{Spans: []*obs.SpanDoc{span("job", 0, 1, nil)}}) != nil {
		t.Error("a trace without rank spans summarized to metrics")
	}
}

func assertMetrics(t *testing.T, got, want map[string]float64) {
	t.Helper()
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, gok := got[k]
		w, wok := want[k]
		if !gok || !wok || math.Abs(g-w) > 1e-9 {
			t.Errorf("%s = %v (present %v), want %v (declared %v)", k, g, gok, w, wok)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	same := func(what string, specs []metricSpec, declared []struct{ Name, Unit string }) {
		var got, want []string
		for _, s := range specs {
			got = append(got, s.name+" "+s.unit)
		}
		for _, d := range declared {
			want = append(want, d.Name+" "+d.Unit)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s metrics differ from BENCHMARK.json:\nbenchmark: %v\ndeclared:  %v", what, got, want)
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)

	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ", ") != workloadNames() {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", workloadNames(), names)
	}

	// The summarizer emits exactly the declared core, msa, kmer and mpi
	// layers, less the two quality scores the workloads compute from
	// their outputs.
	var layerNames []string
	for _, s := range perLayer {
		for _, prefix := range []string{"core.", "msa.", "kmer.", "mpi."} {
			if strings.HasPrefix(s.name, prefix) && s.name != "msa.sp_score" && s.name != "msa.qscore" {
				layerNames = append(layerNames, s.name)
			}
		}
	}
	var emitted []string
	for k := range summarize(goldenDoc()) {
		emitted = append(emitted, k)
	}
	sort.Strings(layerNames)
	sort.Strings(emitted)
	if strings.Join(emitted, " ") != strings.Join(layerNames, " ") {
		t.Errorf("summarizer emits %v, BENCHMARK.json declares %v", emitted, layerNames)
	}
}
