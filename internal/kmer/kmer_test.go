package kmer

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bio"
)

var testCounter = MustCounter(bio.Dayhoff6, 3)

func TestProfileWindowCount(t *testing.T) {
	p := testCounter.Profile([]byte("ACDEFGHIKL")) // length 10, k=3 → 8 windows
	if p.Windows != 8 {
		t.Fatalf("Windows = %d, want 8", p.Windows)
	}
	if p.SeqLen != 10 {
		t.Fatalf("SeqLen = %d, want 10", p.SeqLen)
	}
	var total int32
	for _, e := range p.Entries {
		total += e.Count
	}
	if int(total) != p.Windows {
		t.Fatalf("entry counts sum to %d, want %d", total, p.Windows)
	}
}

func TestProfileShortSequence(t *testing.T) {
	p := testCounter.Profile([]byte("AC")) // shorter than k
	if p.Windows != 0 || len(p.Entries) != 0 {
		t.Fatalf("short sequence produced %d windows", p.Windows)
	}
}

func TestProfileSkipsGaps(t *testing.T) {
	a := testCounter.Profile([]byte("ACDEF"))
	b := testCounter.Profile([]byte("A-C--DE-F"))
	if Similarity(a, b) != 1 {
		t.Fatalf("gapped and ungapped copies differ: sim = %g", Similarity(a, b))
	}
}

func TestProfileSortedEntries(t *testing.T) {
	p := testCounter.Profile([]byte("MKVLAAGGTWYHHKDEDEDEMKVLAAGG"))
	for i := 1; i < len(p.Entries); i++ {
		if p.Entries[i-1].Code >= p.Entries[i].Code {
			t.Fatalf("entries not strictly sorted at %d", i)
		}
	}
}

func TestSimilaritySelfIsOne(t *testing.T) {
	p := testCounter.Profile([]byte("MKVLAAGGTWYHHKDE"))
	if s := Similarity(p, p); s != 1 {
		t.Fatalf("self similarity = %g", s)
	}
	if d := Distance(p, p); d != 0 {
		t.Fatalf("self distance = %g", d)
	}
}

func TestSimilarityDisjoint(t *testing.T) {
	// W and C are alone in their Dayhoff classes, so these share no k-mers.
	a := testCounter.Profile([]byte("WWWWWWWW"))
	b := testCounter.Profile([]byte("CCCCCCCC"))
	if s := Similarity(a, b); s != 0 {
		t.Fatalf("disjoint similarity = %g", s)
	}
}

func TestSimilarityCompressedClasses(t *testing.T) {
	// I, L, M, V share a Dayhoff class, so ILMV-equivalent strings match.
	a := testCounter.Profile([]byte("IIIIIIII"))
	b := testCounter.Profile([]byte("LMVLMVLM"))
	if s := Similarity(a, b); s != 1 {
		t.Fatalf("same-class similarity = %g, want 1", s)
	}
}

func randomSeq(rng *rand.Rand, n int) []byte {
	letters := bio.AminoAcids.Letters()
	out := make([]byte, n)
	for i := range out {
		out[i] = letters[rng.Intn(len(letters))]
	}
	return out
}

func TestSimilarityPropertyBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seedA, seedB uint16) bool {
		a := testCounter.Profile(randomSeq(rng, 5+int(seedA)%200))
		b := testCounter.Profile(randomSeq(rng, 5+int(seedB)%200))
		s, s2 := Similarity(a, b), Similarity(b, a)
		return s >= 0 && s <= 1 && math.Abs(s-s2) < 1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// edgeSeqs returns random sequences mixed with the inputs a k-mer kernel
// is most likely to get wrong: low-complexity runs with large repeat
// counts, sequences shorter than k (Windows = 0), and gapped data with
// bytes outside the alphabet that break windows.
func edgeSeqs(rng *rand.Rand, n int) [][]byte {
	seqs := [][]byte{
		[]byte(strings.Repeat("A", 400)),
		[]byte(strings.Repeat("L", 250)),
		[]byte(strings.Repeat("AC", 180)),
		[]byte(strings.Repeat("GGWKD", 60)),
		[]byte("AC"),
		[]byte(""),
		[]byte("--A-C--"),
		[]byte("ACDXEFGBHIK*LMN-PQR--STVWYJACDEF"),
		[]byte("XXXXXXXXXX"),
		[]byte(strings.Repeat("A-C-D-E-X", 30)),
	}
	for len(seqs) < n {
		sq := randomSeq(rng, 1+rng.Intn(160))
		for i := range sq {
			switch r := rng.Intn(40); {
			case r == 0:
				sq[i] = bio.Gap
			case r == 1:
				sq[i] = 'X'
			}
		}
		seqs = append(seqs, sq)
	}
	return seqs[:n]
}

// rowCommon is Common(a, b) through a row table holding a, which it
// checks is all zeros again once a is cleared.
func rowCommon(t *testing.T, span int, a, b Profile) int {
	t.Helper()
	var got int
	withTable(span, func(tab table) {
		tab.load(a)
		got = tab.common(a, b)
		tab.clear(a)
		for code, c := range tab {
			if c != 0 {
				t.Fatalf("table not cleared: code %d holds %d", code, c)
			}
		}
	})
	return got
}

func TestCommonAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const k = 3
	// count windows of the ungapped data with no byte outside the
	// alphabet, exactly the windows Profile keeps.
	count := func(data []byte) map[uint32]int {
		m := map[uint32]int{}
		res := bytes.ReplaceAll(data, []byte{bio.Gap}, nil)
	window:
		for i := 0; i+k <= len(res); i++ {
			code := uint32(0)
			for j := i; j < i+k; j++ {
				cl := bio.Dayhoff6.Class(res[j])
				if cl < 0 {
					continue window
				}
				code = code*uint32(bio.Dayhoff6.Len()) + uint32(cl)
			}
			m[code]++
		}
		return m
	}
	seqs := edgeSeqs(rng, 40)
	profiles := make([]Profile, len(seqs))
	for i, sq := range seqs {
		profiles[i] = testCounter.Profile(sq)
	}
	span := codeSpan(profiles)
	for a := range seqs {
		for b := range seqs {
			want := 0
			ca, cb := count(seqs[a]), count(seqs[b])
			for code, na := range ca {
				want += min(na, cb[code])
			}
			if got := Common(profiles[a], profiles[b]); got != want {
				t.Fatalf("(%d,%d): Common = %d, brute force = %d", a, b, got, want)
			}
			if got := rowCommon(t, span, profiles[a], profiles[b]); got != want {
				t.Fatalf("(%d,%d): row table = %d, brute force = %d", a, b, got, want)
			}
		}
	}
}

func TestMatrixIndexing(t *testing.T) {
	m := NewMatrix(5)
	v := 1.0
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			m.Set(i, j, v)
			v++
		}
	}
	v = 1.0
	for i := 0; i < 5; i++ {
		if m.At(i, i) != 0 {
			t.Fatalf("diagonal not zero at %d", i)
		}
		for j := i + 1; j < 5; j++ {
			if m.At(i, j) != v || m.At(j, i) != v {
				t.Fatalf("At(%d,%d) = %g want %g", i, j, m.At(i, j), v)
			}
			v++
		}
	}
}

func TestDistanceMatrixParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	profiles := make([]Profile, 40)
	for i := range profiles {
		profiles[i] = testCounter.Profile(randomSeq(rng, 50+rng.Intn(100)))
	}
	serial := DistanceMatrix(profiles, 1)
	parallel := DistanceMatrix(profiles, 8)
	for i := 0; i < len(profiles); i++ {
		for j := 0; j < len(profiles); j++ {
			if serial.At(i, j) != parallel.At(i, j) {
				t.Fatalf("parallel mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// rowMatrix is the pre-tiling reference: one row per dispatch, exactly
// the sequential pair loop.
func rowMatrix(profiles []Profile) *Matrix {
	n := len(profiles)
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, Distance(profiles[i], profiles[j]))
		}
	}
	return m
}

// kernelCounters are the code spaces the kernels are checked over: the
// small test space, the pipeline default (Dayhoff6, k=6), and the full
// amino-acid alphabet at k=6, whose 20^6 codes are over tableBudget and
// so exercise the merge fallback.
var kernelCounters = []*Counter{
	testCounter,
	MustCounter(bio.Dayhoff6, DefaultK),
	MustCounter(bio.Identity(bio.AminoAcids), 6),
}

// kernelProfiles counts n edge-case and random sequences with c.
func kernelProfiles(c *Counter, seed int64, n int) []Profile {
	seqs := edgeSeqs(rand.New(rand.NewSource(seed)), n)
	profiles := make([]Profile, n)
	for i, sq := range seqs {
		profiles[i] = c.Profile(sq)
	}
	return profiles
}

// TestDistanceMatrixTiledMatchesRows pins the tiling invariant: for any
// tile size — degenerate 1×1 tiles, a size that doesn't divide N, a
// cache-sized block, one tile covering everything — any worker count
// and any code space, the tiled row-table kernel is bit-identical to
// the row-by-row loop over the merge Distance.
func TestDistanceMatrixTiledMatchesRows(t *testing.T) {
	const n = 70
	for ci, c := range kernelCounters {
		profiles := kernelProfiles(c, 7, n)
		if span := codeSpan(profiles); (span > tableBudget) != (ci == len(kernelCounters)-1) {
			t.Fatalf("counter %d: code span %d on the wrong side of the table budget", ci, span)
		}
		want := rowMatrix(profiles)
		for _, tile := range []int{1, 7, 64, n} {
			for _, workers := range []int{1, 2, 3, 4, 8} {
				got, err := DistanceMatrixTiled(context.Background(), profiles, workers, tile)
				if err != nil {
					t.Fatalf("counter %d tile=%d workers=%d: %v", ci, tile, workers, err)
				}
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
							t.Fatalf("counter %d tile=%d workers=%d: mismatch at (%d,%d): %g != %g",
								ci, tile, workers, i, j, got.At(i, j), want.At(i, j))
						}
					}
				}
			}
		}
	}
}

// TestAvgDistancesMatchesDistanceLoop checks the row-table average
// distances bit for bit against the plain loop over Distance, for
// targets inside and outside the reference, in every code space.
func TestAvgDistancesMatchesDistanceLoop(t *testing.T) {
	for ci, c := range kernelCounters {
		profiles := kernelProfiles(c, 9, 60)
		targets, reference := profiles, profiles[10:35]
		want := make([]float64, len(targets))
		for i, ti := range targets {
			for _, r := range reference {
				want[i] += Distance(ti, r)
			}
			want[i] /= float64(len(reference))
		}
		for workers := 1; workers <= 4; workers++ {
			got, err := AvgDistancesContext(context.Background(), targets, reference, workers)
			if err != nil {
				t.Fatalf("counter %d workers=%d: %v", ci, workers, err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("counter %d workers=%d: target %d: %g != %g", ci, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestDistanceMatrixTiledCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	profiles := make([]Profile, 300)
	for i := range profiles {
		profiles[i] = testCounter.Profile(randomSeq(rng, 60))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DistanceMatrixTiled(ctx, profiles, 4, 16); err == nil {
		t.Fatal("cancelled tiled matrix returned nil error")
	}
}

func TestRankMonotone(t *testing.T) {
	prev := math.Inf(-1)
	for d := 0.0; d <= 1.0; d += 0.01 {
		r := Rank(d, DefaultRankScale)
		if r <= prev {
			t.Fatalf("rank not strictly increasing at d=%g", d)
		}
		prev = r
	}
}

func TestRankPaperRange(t *testing.T) {
	// With the default scale, ranks of distances in [0.22, 1] land inside
	// the paper's reported [0, 1.47] band (Table 1).
	if r := Rank(1, DefaultRankScale); r < 1.3 || r > 1.5 {
		t.Errorf("Rank(1) = %g, outside the paper's max band", r)
	}
	if r := Rank(0.225, DefaultRankScale); math.Abs(r) > 0.01 {
		t.Errorf("Rank(0.225) = %g, want ≈ 0", r)
	}
}

func TestRanksCentralizedSelfIncluded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	profiles := make([]Profile, 10)
	for i := range profiles {
		profiles[i] = testCounter.Profile(randomSeq(rng, 80))
	}
	ranks := Ranks(profiles, profiles, DefaultRankScale, 2)
	if len(ranks) != 10 {
		t.Fatalf("got %d ranks", len(ranks))
	}
	// identical reference must give identical ranks for identical targets
	r2 := Ranks(profiles, profiles, DefaultRankScale, 1)
	for i := range ranks {
		if ranks[i] != r2[i] {
			t.Fatalf("parallel rank mismatch at %d", i)
		}
	}
}

func TestAvgDistancesEmptyReference(t *testing.T) {
	p := []Profile{testCounter.Profile([]byte("ACDEFGH"))}
	ds := AvgDistances(p, nil, 1)
	if len(ds) != 1 || ds[0] != 0 {
		t.Fatalf("empty reference: %v", ds)
	}
}

func TestNewCounterValidation(t *testing.T) {
	if _, err := NewCounter(bio.Dayhoff6, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewCounter(bio.Identity(bio.AminoAcids), 9); err == nil {
		t.Error("20^9 code space accepted")
	}
	if _, err := NewCounter(bio.Dayhoff6, 6); err != nil {
		t.Errorf("6^6 rejected: %v", err)
	}
}

func TestProfileInvalidBytesBreakWindows(t *testing.T) {
	// 'X' has no Dayhoff class: windows must not span it.
	withX := testCounter.Profile([]byte("ACDXEFG"))
	// Only ACD and EFG contribute one window each.
	if withX.Windows != 2 {
		t.Fatalf("Windows = %d, want 2", withX.Windows)
	}
}

func TestPairTilesCoverEveryPairOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 15, 16, 17, 100, 257} {
		for _, workers := range []int{1, 2, 7, 16} {
			for _, tile := range []int{-1, 0, 1, 5, 16, 64, n + 3} {
				seen := make(map[[2]int]int)
				for _, tl := range PairTiles(n, workers, tile) {
					if tl.RLo < 0 || tl.RHi > n || tl.CLo < 0 || tl.CHi > n ||
						tl.RLo >= tl.RHi || tl.CLo >= tl.CHi {
						t.Fatalf("n=%d workers=%d tile=%d: bad tile %+v", n, workers, tile, tl)
					}
					for i := tl.RLo; i < tl.RHi; i++ {
						jlo := tl.CLo
						if jlo <= i {
							jlo = i + 1
						}
						for j := jlo; j < tl.CHi; j++ {
							seen[[2]int{i, j}]++
						}
					}
				}
				want := n * (n - 1) / 2
				if len(seen) != want {
					t.Fatalf("n=%d workers=%d tile=%d: %d pairs covered, want %d",
						n, workers, tile, len(seen), want)
				}
				for p, c := range seen {
					if c != 1 {
						t.Fatalf("n=%d workers=%d tile=%d: pair %v covered %d times",
							n, workers, tile, p, c)
					}
				}
			}
		}
	}
}
