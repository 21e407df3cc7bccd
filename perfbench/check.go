package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"repro/internal/bio"
	"repro/internal/msa"
)

// checkAlignment is the output check every pipeline job passes: the rows
// are the input's, in input order with their IDs, all of one width, and
// each ungaps to exactly its input residues.
func checkAlignment(in []bio.Sequence, aln *msa.Alignment) error {
	if aln == nil {
		return fmt.Errorf("no alignment")
	}
	if len(aln.Seqs) != len(in) {
		return fmt.Errorf("%d rows for %d input sequences", len(aln.Seqs), len(in))
	}
	width := aln.Width()
	for i, row := range aln.Seqs {
		if row.ID != in[i].ID {
			return fmt.Errorf("row %d has ID %q, input has %q", i, row.ID, in[i].ID)
		}
		if len(row.Data) != width {
			return fmt.Errorf("row %q is %d wide, alignment is %d", row.ID, len(row.Data), width)
		}
		if !bytes.Equal(bio.Ungap(row.Data), bio.Ungap(in[i].Data)) {
			return fmt.Errorf("row %q does not ungap to its input residues", row.ID)
		}
	}
	return nil
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// tailLatency is the 95th percentile of xs when at least ten samples lie
// beyond it (200 or more samples). With fewer, it is the highest
// percentile that still has ten beyond it, and below 11 samples, where
// none has, the slowest sample.
func tailLatency(xs []float64) float64 {
	n := len(xs)
	if n <= 10 {
		return quantile(xs, 1)
	}
	return quantile(xs, min(0.95, 1-10/float64(n)))
}
