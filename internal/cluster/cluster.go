// Package cluster is a discrete cost-model simulator of the paper's
// evaluation platform: a 16-node Beowulf cluster of 550 MHz Pentium-III
// machines on gigabit Ethernet. Running the paper's experiments at full
// scale (N = 20000, or the 23-hour sequential MUSCLE baseline) is not
// feasible inside this repository's test budget, so the simulator prices
// each phase of Sample-Align-D with the complexity terms from the
// paper's §2.3/§3 analysis and constants calibrated against the paper's
// own anchor measurements:
//
//	anchor A (Fig. 4 text): 20000 synthetic sequences, p=16 → ~25 s
//	anchor B (Fig. 6): sequential MUSCLE, 2000 genome proteins → ~23 h
//	anchor C (Fig. 6): Sample-Align-D, 2000 genome proteins, p=16 → 9.82 min
//	anchor D (§1): CLUSTALW, 5000 sequences → ~1 year
//
// Anchors A and C are mutually inconsistent under any monotone cost
// model (aligning 20000 easy sequences cannot be cheaper than 2000 hard
// ones on the same hardware), which is why there are two presets: the
// Synthetic preset reproduces the Fig. 4/5 shapes, the Genome preset the
// Fig. 6 shape.
package cluster

import (
	"fmt"
	"math"
)

// Network models the interconnect with a per-message latency and a
// per-byte cost (gigabit Ethernet ≈ 100 µs latency, 8 ns/byte).
type Network struct {
	Alpha float64 // seconds per message
	Beta  float64 // seconds per byte
}

// GigabitEthernet is the paper's interconnect.
var GigabitEthernet = Network{Alpha: 1e-4, Beta: 8e-9}

// Calibration holds the per-term unit costs (seconds per elementary
// operation of each complexity term).
type Calibration struct {
	Name string

	// KmerLocal prices step 1, the local k-mer ranking: w²·L.
	KmerLocal float64
	// SampleRank prices step 6, ranking w sequences against the k·p
	// global sample (the paper's w·(kp+1)²·L term, k = p−1). This term
	// grows with p² per sequence and is what bends the speedup curves
	// down at p=16 for the smaller data sets (Fig. 5).
	SampleRank float64
	// MuscleW2L and MuscleWL2 price the practical (draft) MUSCLE path on
	// a bucket: w²·L distance stage plus w·L² progressive stage.
	MuscleW2L float64
	MuscleWL2 float64
	// FineTuneWL2 prices the GA profile re-alignment: w·L².
	FineTuneWL2 float64
	// RefineN4 prices MUSCLE's iterative refinement at full input size
	// (N⁴) — only the sequential baseline pays it; buckets of ≤ 2N/p
	// sequences make it negligible, which is the algorithmic source of
	// the paper's superlinear speedup.
	RefineN4 float64
	// ClustalN4 prices sequential CLUSTALW's final alignment stage (N⁴),
	// anchored at "1 year for 5000 sequences".
	ClustalN4 float64
	// Hardness is a workload multiplier on the alignment kernels:
	// divergent real genome proteins drive MUSCLE's heuristics far
	// harder than ROSE synthetic families.
	Hardness float64

	Net Network
}

// Synthetic is calibrated to the paper's synthetic-data results
// (Fig. 4/5; anchor A).
func Synthetic() Calibration {
	return Calibration{
		Name:        "synthetic",
		KmerLocal:   2e-9,
		SampleRank:  1.6e-9,
		MuscleW2L:   5.3e-8,
		MuscleWL2:   1e-7,
		FineTuneWL2: 1e-7,
		RefineN4:    5.2e-9,
		ClustalN4:   5.0e-8,
		Hardness:    1,
		Net:         GigabitEthernet,
	}
}

// Genome is calibrated to the paper's Methanosarcina acetivorans
// experiment (Fig. 6; anchors B and C).
func Genome() Calibration {
	c := Synthetic()
	c.Name = "genome"
	c.Hardness = 210
	c.RefineN4 = 4.0e-9
	return c
}

// Phases is the simulated per-phase cost breakdown (seconds).
type Phases struct {
	KmerLocal  float64
	Sampling   float64
	Pivoting   float64
	Redistrib  float64
	LocalAlign float64
	Ancestor   float64
	FineTune   float64
	Glue       float64
	CommTotal  float64
	Total      float64
}

// SampleAlignD simulates one run of the distributed algorithm for N
// sequences of average length L on p processors and returns the phase
// breakdown (the slowest rank's timeline; buckets are balanced by the
// regular-sampling bound).
func (c Calibration) SampleAlignD(n, l, p int) (Phases, error) {
	if n < 1 || l < 1 || p < 1 {
		return Phases{}, fmt.Errorf("cluster: bad parameters n=%d l=%d p=%d", n, l, p)
	}
	var ph Phases
	w := float64(n) / float64(p)
	L := float64(l)
	fp := float64(p)

	if p == 1 {
		// single node: the pipeline collapses to the local aligner
		ph.LocalAlign = c.Hardness * (c.MuscleW2L*w*w*L + c.MuscleWL2*w*L*L)
		ph.Total = ph.LocalAlign
		return ph, nil
	}

	k := fp - 1 // samples per rank
	ph.KmerLocal = c.KmerLocal * w * w * L

	// sample exchange (all-gather of k·p sequences) + globalised ranking
	sampleBytes := k * fp * L
	ph.Sampling = c.SampleRank*w*(k*fp+1)*(k*fp+1)*L +
		commCost(c.Net, 2*fp, sampleBytes*fp)

	// pivot gather/broadcast: p(p−1) ranks + p−1 pivots (8 bytes each)
	ph.Pivoting = commCost(c.Net, 2*fp, 8*fp*(fp-1)+8*(fp-1))

	// all-to-all personalised exchange: each rank ships ~w·L bytes
	ph.Redistrib = commCost(c.Net, fp-1, w*L)

	// bucket alignment: regular sampling bounds the bucket by 2w, but the
	// expected size is w; we price the expectation (the paper's analysis)
	ph.LocalAlign = c.Hardness * (c.MuscleW2L*w*w*L + c.MuscleWL2*w*L*L)

	// ancestor phases: gather p ancestors of length L, align p sequences,
	// broadcast GA
	ancestorAlign := c.Hardness * (c.MuscleW2L*fp*fp*L + c.MuscleWL2*fp*L*L)
	ph.Ancestor = ancestorAlign + commCost(c.Net, 2*math.Log2(fp)+1, 2*fp*L)

	// fine-tune: profile alignment of the local alignment vs GA
	ph.FineTune = c.Hardness * c.FineTuneWL2 * w * L * L

	// glue: gather all rows at the root
	ph.Glue = commCost(c.Net, fp, float64(n)*L)

	ph.CommTotal = ph.Pivoting + ph.Redistrib + ph.Glue +
		commCost(c.Net, 2*fp, sampleBytes*fp) + commCost(c.Net, 2*math.Log2(fp)+1, 2*fp*L)
	ph.Total = ph.KmerLocal + ph.Sampling + ph.Pivoting + ph.Redistrib +
		ph.LocalAlign + ph.Ancestor + ph.FineTune + ph.Glue
	return ph, nil
}

// commCost prices a communication pattern of `msgs` messages moving
// `bytes` payload bytes through one NIC.
func commCost(net Network, msgs, bytes float64) float64 {
	if msgs < 0 {
		msgs = 0
	}
	return net.Alpha*msgs + net.Beta*bytes
}

// SequentialMuscle simulates full MUSCLE (draft + iterative refinement)
// on one node — the paper's 23-hour baseline.
func (c Calibration) SequentialMuscle(n, l int) float64 {
	w, L := float64(n), float64(l)
	draft := c.Hardness * (c.MuscleW2L*w*w*L + c.MuscleWL2*w*L*L)
	refine := c.RefineN4 * w * w * w * w
	return draft + refine
}

// SequentialClustalW simulates sequential CLUSTALW — the paper's
// "approximately 1 year for 5000 sequences" contrast.
func (c Calibration) SequentialClustalW(n, l int) float64 {
	w, L := float64(n), float64(l)
	return c.Hardness*(c.MuscleW2L*w*w*L*2) + c.ClustalN4*w*w*w*w + c.Hardness*c.MuscleWL2*w*L*L
}

// Speedup returns T(1)/T(p) for Sample-Align-D under this calibration
// (the paper's Fig. 5 metric: the p=1 baseline is the pipeline itself on
// one node, i.e. the draft local aligner on all N).
func (c Calibration) Speedup(n, l, p int) (float64, error) {
	t1, err := c.SampleAlignD(n, l, 1)
	if err != nil {
		return 0, err
	}
	tp, err := c.SampleAlignD(n, l, p)
	if err != nil {
		return 0, err
	}
	if tp.Total <= 0 {
		return 0, fmt.Errorf("cluster: non-positive simulated time")
	}
	return t1.Total / tp.Total, nil
}
