// Package kmer implements k-mer counting, the MUSCLE-style k-mer
// similarity/distance between sequences, distance matrices, and the
// Sample-Align-D k-mer rank R = log(0.1 + D) used to order sequences for
// phylogenetic sampling and redistribution.
//
// Counting runs over a compressed alphabet (bio.Dayhoff6 by default):
// grouping chemically similar residues makes short k-mers sensitive to
// distant homology (Edgar, NAR 2004). Sequences become sparse sorted
// k-mer count profiles. The O(N²) passes (distance matrix, average
// distances behind the ranks) compare them with a row table: one
// profile's counts are scattered into a dense code-indexed table, and
// every other profile is scored against it with one lookup per entry.
// Common, the sorted merge of two profiles, is the reference and the
// fallback for code spaces too large to tabulate.
package kmer

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/bio"
	"repro/internal/obs"
	"repro/internal/par"
)

// DefaultK is the k-mer length used throughout the reproduction; k=6
// over the six-class Dayhoff alphabet matches MUSCLE's protein default.
const DefaultK = 6

// Counter turns sequences into k-mer count profiles over a compressed
// alphabet.
type Counter struct {
	comp *bio.Compressed
	k    int
}

// NewCounter returns a Counter for k-mers of length k over the compressed
// alphabet comp. It fails if k is out of range or the code space
// comp.Len()^k overflows the 32-bit k-mer codes.
func NewCounter(comp *bio.Compressed, k int) (*Counter, error) {
	if k < 1 {
		return nil, fmt.Errorf("kmer: k = %d, want >= 1", k)
	}
	code := 1.0
	for i := 0; i < k; i++ {
		code *= float64(comp.Len())
		if code > float64(1<<31) {
			return nil, fmt.Errorf("kmer: %d^%d k-mer codes overflow uint32", comp.Len(), k)
		}
	}
	return &Counter{comp: comp, k: k}, nil
}

// MustCounter is NewCounter that panics on error, for package constants.
func MustCounter(comp *bio.Compressed, k int) *Counter {
	c, err := NewCounter(comp, k)
	if err != nil {
		panic(err)
	}
	return c
}

// K returns the k-mer length.
func (c *Counter) K() int { return c.k }

// Alphabet returns the compressed alphabet in use.
func (c *Counter) Alphabet() *bio.Compressed { return c.comp }

// Entry is one k-mer code with its occurrence count.
type Entry struct {
	Code  uint32
	Count int32
}

// Profile is a sparse k-mer count profile: entries sorted by code, plus
// the window count used as the similarity denominator.
type Profile struct {
	Entries []Entry
	Windows int // number of valid k-mer windows (≈ len-k+1)
	SeqLen  int // ungapped sequence length
}

// Profile counts the k-mers of data (gap bytes and residues outside the
// compressed alphabet break windows, matching how MUSCLE skips X runs).
func (c *Counter) Profile(data []byte) Profile {
	k := c.k
	size := uint32(c.comp.Len())
	codes := make([]uint32, 0, max(0, len(data)-k+1))
	hi := uint32(1) // size^(k-1): modulus that keeps the last k-1 classes
	for i := 1; i < k; i++ {
		hi *= size
	}
	var (
		code uint32
		run  int // valid residues seen since the last window break
		nres int
	)
	for _, b := range data {
		if b == bio.Gap {
			continue
		}
		nres++
		cl := c.comp.Class(b)
		if cl < 0 {
			run, code = 0, 0
			continue
		}
		code = (code%hi)*size + uint32(cl)
		run++
		if run >= k {
			codes = append(codes, code)
		}
	}
	slices.Sort(codes)
	entries := make([]Entry, 0, len(codes))
	for i := 0; i < len(codes); {
		j := i
		for j < len(codes) && codes[j] == codes[i] {
			j++
		}
		entries = append(entries, Entry{Code: codes[i], Count: int32(j - i)})
		i = j
	}
	return Profile{Entries: entries, Windows: len(codes), SeqLen: nres}
}

// Profiles computes the profiles of all sequences, in parallel.
func (c *Counter) Profiles(seqs []bio.Sequence, workers int) []Profile {
	return par.Map(len(seqs), workers, func(i int) Profile {
		return c.Profile(seqs[i].Data)
	})
}

// Common returns Σ_τ min(n_a(τ), n_b(τ)), the shared k-mer count, by
// merging the two sorted profiles.
func Common(a, b Profile) int {
	var sum int
	i, j := 0, 0
	for i < len(a.Entries) && j < len(b.Entries) {
		ea, eb := a.Entries[i], b.Entries[j]
		switch {
		case ea.Code < eb.Code:
			i++
		case ea.Code > eb.Code:
			j++
		default:
			if ea.Count < eb.Count {
				sum += int(ea.Count)
			} else {
				sum += int(eb.Count)
			}
			i++
			j++
		}
	}
	return sum
}

// Similarity is the paper's r(x_i,x_j): shared k-mers normalised by the
// window count of the shorter sequence. It lies in [0,1]; identical
// sequences score 1.
func Similarity(a, b Profile) float64 { return similarity(Common(a, b), a, b) }

// similarity normalises a shared k-mer count by the shorter window
// count and clamps it to 1: the one floating-point formula behind
// Similarity, Distance and the row-table kernels, so all of them agree
// bit for bit.
func similarity(common int, a, b Profile) float64 {
	den := min(a.Windows, b.Windows)
	if den <= 0 {
		return 0
	}
	return min(float64(common)/float64(den), 1)
}

// Distance is 1 − Similarity: 0 for k-mer-identical sequences, 1 for
// sequences sharing no k-mers.
func Distance(a, b Profile) float64 { return 1 - Similarity(a, b) }

// tableBudget caps a row table at 1<<20 codes (4 MiB). The default
// Dayhoff6 k=6 space is 6^6 = 46656 codes (182 KiB); only a non-default
// alphabet/k pair, such as the full 20-letter alphabet at k >= 5,
// exceeds the budget and falls back to the merge in Common.
const tableBudget = 1 << 20

// table is a dense k-mer count table indexed by code that holds one row
// profile at a time: load scatters the row's counts, common scores a
// column profile against them with one branch-free min per column
// entry, and clear zeroes the row's codes again. A nil table stands for
// a code space over tableBudget; its methods then use Common.
type table []int32

func (t table) load(row Profile) {
	if t == nil {
		return
	}
	for _, e := range row.Entries {
		t[e.Code] = e.Count
	}
}

func (t table) clear(row Profile) {
	if t == nil {
		return
	}
	for _, e := range row.Entries {
		t[e.Code] = 0
	}
}

// common is Common(row, col) for the loaded row.
func (t table) common(row, col Profile) int {
	if t == nil {
		return Common(row, col)
	}
	var sum int
	for _, e := range col.Entries {
		sum += int(min(t[e.Code], e.Count))
	}
	return sum
}

// distance is Distance(row, col) for the loaded row.
func (t table) distance(row, col Profile) float64 {
	return 1 - similarity(t.common(row, col), row, col)
}

// tables recycles row tables across workers and calls. A pooled table
// is all zeros: every loaded row is cleared before the table goes back.
var tables = sync.Pool{New: func() any { return new(table) }}

// withTable runs f with a zeroed table covering the codes [0, span), or
// with a nil table when span is over tableBudget.
func withTable(span int, f func(t table)) {
	if span > tableBudget {
		f(nil)
		return
	}
	tp := tables.Get().(*table)
	if len(*tp) < span {
		*tp = make(table, span)
	}
	f((*tp)[:span])
	// Not deferred: a panic in f can leave a row loaded, and such a
	// table must not go back to the pool.
	tables.Put(tp)
}

// codeSpan is one past the largest k-mer code in the profiles: the
// table size that covers every code present.
func codeSpan(sets ...[]Profile) int {
	span := 0
	for _, ps := range sets {
		for _, p := range ps {
			if n := len(p.Entries); n > 0 {
				span = max(span, int(p.Entries[n-1].Code)+1)
			}
		}
	}
	return span
}

// Matrix is a symmetric distance matrix stored in condensed upper-
// triangular form.
type Matrix struct {
	N int
	d []float64 // N*(N-1)/2 entries, row-major upper triangle
}

// NewMatrix allocates an N×N zero distance matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n, d: make([]float64, n*(n-1)/2)}
}

func (m *Matrix) idx(i, j int) int {
	if i > j {
		i, j = j, i
	}
	// offset of row i plus column distance
	return i*(2*m.N-i-1)/2 + (j - i - 1)
}

// At returns the distance between items i and j (0 when i == j).
func (m *Matrix) At(i, j int) float64 {
	if i == j {
		return 0
	}
	return m.d[m.idx(i, j)]
}

// Set stores the distance between distinct items i and j.
func (m *Matrix) Set(i, j int, v float64) {
	if i == j {
		return
	}
	m.d[m.idx(i, j)] = v
}

// DefaultTileSize is the edge length of the blocks the distance-matrix
// pair space is tiled into. Each row of a 128×128 tile is loaded into
// the worker's row table once and scored against the tile's 128 column
// profiles; the table (182 KiB for Dayhoff6 k=6) and those columns
// (~300 entries of 8 bytes each for a protein) stay cache-resident
// while the row sweeps them, and the O(tile²) scoring work dwarfs tile
// dispatch.
const DefaultTileSize = 128

// DistanceMatrix computes all pairwise k-mer distances between the
// profiles, in parallel across cache-sized tiles of the upper-
// triangular pair space (see DistanceMatrixTiled).
func DistanceMatrix(profiles []Profile, workers int) *Matrix {
	//lint:allow ctxflow context-free compat wrapper: delegates to the Context-bound variant
	m, _ := DistanceMatrixTiled(context.Background(), profiles, workers, 0)
	return m
}

// DistanceMatrixContext is DistanceMatrix bound to a context: this
// O(N²) pass dominates guide-tree construction on large inputs, so it
// stops dispatching tiles on cancellation.
func DistanceMatrixContext(ctx context.Context, profiles []Profile, workers int) (*Matrix, error) {
	ctx, sp := obs.Start(ctx, "distmatrix")
	defer sp.End()
	sp.SetStr("method", "kmer")
	sp.SetInt("n", int64(len(profiles)))
	sp.SetInt("workers", int64(workers))
	return DistanceMatrixTiled(ctx, profiles, workers, 0)
}

// DistanceMatrixTiled computes all pairwise k-mer distances with the
// upper triangle split into tile×tile blocks handed to workers
// dynamically (par.ForDynamicCtx). The one k-mer counting pass over
// the sequences is shared by every tile — profiles arrive precomputed
// — and within a tile each row profile is loaded into the worker's row
// table once and scored against the tile's whole column range. Every
// pair is written by exactly one tile with the same integer count and
// floating-point operations as Distance, so the result is bit-identical
// for every workers value and every tile size. tile <= 0 selects
// DefaultTileSize.
func DistanceMatrixTiled(ctx context.Context, profiles []Profile, workers int, tile int) (*Matrix, error) {
	n := len(profiles)
	m := NewMatrix(n)
	if n < 2 {
		return m, ctx.Err()
	}
	tiles := PairTiles(n, workers, tile)
	span := codeSpan(profiles)
	err := par.ForDynamicCtx(ctx, len(tiles), workers, func(t int) {
		tl := tiles[t]
		withTable(span, func(tab table) {
			for i := tl.RLo; i < tl.RHi; i++ {
				pi := profiles[i]
				jlo := max(tl.CLo, i+1) // diagonal tile: stay above the diagonal
				tab.load(pi)
				for j := jlo; j < tl.CHi; j++ {
					m.Set(i, j, tab.distance(pi, profiles[j]))
				}
				tab.clear(pi)
			}
		})
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Tile is one block of the strict upper-triangular pair space: rows
// [RLo, RHi) against columns [CLo, CHi). Tiles on the diagonal include
// sub-diagonal cells in their ranges; iterate with jlo = max(CLo, i+1)
// to visit each unordered pair exactly once.
type Tile struct {
	RLo, RHi, CLo, CHi int
}

// PairTiles enumerates cache-sized tiles covering all unordered pairs
// of n items, in the fixed (row-block, column-block) order the tiled
// distance matrix dispatches them. tile <= 0 selects DefaultTileSize,
// shrunk until the dynamic scheduler has around four tiles per worker —
// at n <= DefaultTileSize a single tile would serialize the whole
// triangle, losing to a per-row fan-out. The floor keeps per-tile work
// above dispatch cost; explicit tile sizes are honoured as given.
// Shared by the k-mer distance matrix and the %-identity (CLUSTALW)
// distance pass in internal/msa, so both walk the identical schedule.
func PairTiles(n, workers, tile int) []Tile {
	if tile <= 0 {
		tile = DefaultTileSize
		w := workers
		if w <= 0 {
			w = par.DefaultWorkers()
		}
		for w > 1 && tile > 16 {
			nb := (n + tile - 1) / tile
			if nb*(nb+1)/2 >= 4*w {
				break
			}
			tile /= 2
		}
	}
	if tile > n {
		tile = n
	}
	if tile < 1 {
		tile = 1
	}
	nb := (n + tile - 1) / tile
	tiles := make([]Tile, 0, nb*(nb+1)/2)
	for rb := 0; rb < nb; rb++ {
		for cb := rb; cb < nb; cb++ {
			t := Tile{RLo: rb * tile, RHi: rb*tile + tile, CLo: cb * tile, CHi: cb*tile + tile}
			if t.RHi > n {
				t.RHi = n
			}
			if t.CHi > n {
				t.CHi = n
			}
			tiles = append(tiles, t)
		}
	}
	return tiles
}

// DefaultRankScale calibrates ranks to the paper's reported numeric range.
// Table 1 of the paper reports ranks in [0, 1.46] with R = log(0.1 + D);
// that range implies the authors' D accumulated to ≈4× the normalised
// k-mer distance fraction, so the default scale is 4.
const DefaultRankScale = 4.0

// Rank maps an average k-mer distance D to the Sample-Align-D rank
// R = ln(0.1 + scale·D). Monotone in D, so ordering by rank equals
// ordering by average distance.
func Rank(d, scale float64) float64 { return math.Log(0.1 + scale*d) }

// AvgDistances returns, for every target profile, its mean k-mer distance
// to the reference set (the paper's D_i). A target that also appears in
// the reference contributes its self-distance of 0, exactly as the
// paper's centralised definition does.
func AvgDistances(targets, reference []Profile, workers int) []float64 {
	//lint:allow ctxflow context-free compat wrapper: delegates to the Context-bound variant
	out, _ := AvgDistancesContext(context.Background(), targets, reference, workers)
	return out
}

// rankBlock is how many targets AvgDistancesContext hands a worker at a
// time; each block borrows one row table.
const rankBlock = 8

// AvgDistancesContext is AvgDistances bound to a context: this O(N·R)
// pass dominates the redistribution phases on large inputs, so it stops
// dispatching blocks of targets on cancellation. Each target is loaded
// into the worker's row table and scored against the reference in
// order, so the sum adds the same Distance values in the same order as
// a plain loop.
func AvgDistancesContext(ctx context.Context, targets, reference []Profile, workers int) ([]float64, error) {
	out := make([]float64, len(targets))
	if len(reference) == 0 {
		return out, ctx.Err()
	}
	span := codeSpan(targets, reference)
	err := par.ForBlocksCtx(ctx, len(targets), rankBlock, workers, func(lo, hi int) {
		withTable(span, func(tab table) {
			for i := lo; i < hi; i++ {
				ti := targets[i]
				tab.load(ti)
				var sum float64
				for _, r := range reference {
					sum += tab.distance(ti, r)
				}
				tab.clear(ti)
				out[i] = sum / float64(len(reference))
			}
		})
	})
	return out, err
}

// Ranks computes the k-mer rank of every target against the reference
// set: centralised ranks when reference is the full data set, globalised
// ranks when it is the k·p sample.
func Ranks(targets, reference []Profile, scale float64, workers int) []float64 {
	//lint:allow ctxflow context-free compat wrapper: delegates to the Context-bound variant
	out, _ := RanksContext(context.Background(), targets, reference, scale, workers)
	return out
}

// RanksContext is Ranks bound to a context (see AvgDistancesContext).
func RanksContext(ctx context.Context, targets, reference []Profile, scale float64, workers int) ([]float64, error) {
	ds, err := AvgDistancesContext(ctx, targets, reference, workers)
	if err != nil {
		return nil, err
	}
	for i, d := range ds {
		ds[i] = Rank(d, scale)
	}
	return ds, nil
}
