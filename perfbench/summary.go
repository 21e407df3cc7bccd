package main

import (
	"sort"
	"strconv"

	"repro/internal/obs"
)

// stageMetric maps a pipeline span name to the per-layer metric that
// reports its self time (max over ranks). Spans not listed here
// (rank, decompose, merge, bucketalign) are containers: their self time
// is accounted in core.stage_self_coverage but reported under no stage.
var stageMetric = map[string]string{
	"localrank":   "core.localrank_s",
	"sample":      "core.sample_s",
	"pivot":       "core.pivot_s",
	"exchange":    "core.exchange_s",
	"ancestor":    "core.ancestor_s",
	"finetune":    "core.finetune_s",
	"glue":        "core.glue_s",
	"distmatrix":  "msa.distmatrix_s",
	"guidetree":   "msa.guidetree_s",
	"progressive": "msa.progressive_s",
	"mergenode":   "msa.mergenode_s",
}

// rankSummary is what one "rank" span subtree says about that rank.
type rankSummary struct {
	rank       int
	wallS      float64
	selfS      map[string]float64 // self seconds by span name, whole subtree
	bucket     int                // bucketalign "seqs" attribute
	bucketS    float64            // bucketalign span wall
	pool       int                // sample "pool" attribute
	distPairs  int64              // Σ n(n-1)/2 over distmatrix spans
	bytesSent  int64
	msgsSent   int64
	hasDecomp  bool
	selfOfRank float64
}

// summarize reduces a trace Document to per-layer metrics. It finds
// every "rank" span wherever it sits (the pipeline's roots, or under a
// server's "job" span) and reports:
//   - per-stage self time, max over ranks (stageMetric)
//   - bucket-align max, max/mean imbalance, and the largest bucket over
//     the paper's 2N/p bound
//   - the slowest rank's wall and the share of it its stage spans cover
//   - profile comparisons (k-mer ranking and distance-matrix pairs)
//   - communication volume summed over ranks
//
// It returns nil when the document holds no rank span.
func summarize(doc *obs.Document) map[string]float64 {
	var ranks []rankSummary
	var visit func(sp *obs.SpanDoc)
	visit = func(sp *obs.SpanDoc) {
		if sp.Name == "rank" {
			ranks = append(ranks, summarizeRank(sp))
			return
		}
		for _, c := range sp.Children {
			visit(c)
		}
	}
	for _, sp := range doc.Spans {
		visit(sp)
	}
	if len(ranks) == 0 {
		return nil
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i].rank < ranks[j].rank })

	m := make(map[string]float64)
	for _, metric := range stageMetric {
		m[metric] = 0
	}
	n, p := 0, len(ranks)
	var bucketMax, bucketSum float64
	var maxBucket int
	var rankPairs, distPairs int64
	slowest := ranks[0]
	for _, r := range ranks {
		for span, metric := range stageMetric {
			m[metric] = max(m[metric], r.selfS[span])
		}
		n += r.bucket
		maxBucket = max(maxBucket, r.bucket)
		bucketMax = max(bucketMax, r.bucketS)
		bucketSum += r.bucketS
		distPairs += r.distPairs
		m["mpi.bytes_sent"] += float64(r.bytesSent)
		m["mpi.msgs_sent"] += float64(r.msgsSent)
		if r.wallS > slowest.wallS {
			slowest = r
		}
	}
	for _, r := range ranks {
		if !r.hasDecomp {
			continue
		}
		// Local block of rank r under the in-process block split
		// (core.SplitBlocks): ranked against itself in localrank, then
		// against the gathered sample pool in sample.
		local := int64((r.rank+1)*n/p - r.rank*n/p)
		rankPairs += local*local + local*int64(r.pool)
	}
	m["core.bucketalign_max_s"] = bucketMax
	if bucketSum > 0 {
		m["core.bucketalign_imbalance"] = bucketMax / (bucketSum / float64(p))
	}
	if n > 0 {
		m["core.bucket_bound_ratio"] = float64(maxBucket) / (2 * float64(n) / float64(p))
	}
	m["core.slowest_rank_wall_s"] = slowest.wallS
	if slowest.wallS > 0 {
		m["core.stage_self_coverage"] = 1 - slowest.selfOfRank/slowest.wallS
	}
	m["kmer.rank_pairs"] = float64(rankPairs)
	m["kmer.distance_pairs"] = float64(distPairs)
	return m
}

func summarizeRank(sp *obs.SpanDoc) rankSummary {
	r := rankSummary{
		rank:      int(attrInt(sp, "rank")),
		wallS:     seconds(sp.DurationNs),
		selfS:     make(map[string]float64),
		bytesSent: attrInt(sp, "bytes_sent"),
		msgsSent:  attrInt(sp, "msgs_sent"),
	}
	r.selfOfRank = seconds(selfNs(sp))
	var walk func(s *obs.SpanDoc)
	walk = func(s *obs.SpanDoc) {
		r.selfS[s.Name] += seconds(selfNs(s))
		switch s.Name {
		case "decompose":
			r.hasDecomp = true
		case "sample":
			r.pool = int(attrInt(s, "pool"))
		case "bucketalign":
			r.bucket = int(attrInt(s, "seqs"))
			r.bucketS = seconds(s.DurationNs)
		case "distmatrix":
			k := attrInt(s, "n")
			r.distPairs += k * (k - 1) / 2
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, c := range sp.Children {
		walk(c)
	}
	return r
}

// selfNs is a span's duration minus the part of its interval covered by
// the union of its children's intervals (clipped to the span), so
// overlapping children — merges run on parallel workers — are not
// subtracted twice.
func selfNs(sp *obs.SpanDoc) int64 {
	lo, hi := sp.StartNs, sp.StartNs+sp.DurationNs
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(sp.Children))
	for _, c := range sp.Children {
		a, b := max(c.StartNs, lo), min(c.StartNs+c.DurationNs, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return sp.DurationNs - covered
}

func attrInt(sp *obs.SpanDoc, key string) int64 {
	for _, a := range sp.Attrs {
		if a.Key == key {
			// SetInt wrote the value; anything unparsable reads as 0,
			// like an absent attribute.
			v, _ := strconv.ParseInt(a.Value, 10, 64)
			return v
		}
	}
	return 0
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }
