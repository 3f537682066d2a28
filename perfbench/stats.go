package main

import (
	"math"
	"sort"
	"strings"
)

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank is the 1-based nearest-rank position of percentile p in n
// sorted samples.
func nearestRank(p float64, n int) int {
	k := int(math.Ceil(p*float64(n)/100 - 1e-9)) // tolerate p*n/100 landing just above an integer

	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// tailLadder is the set of percentiles a tail may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest ladder percentile that leaves at
// least minBeyond samples strictly beyond its nearest-rank position, and
// returns it with its value. With too few samples for any ladder
// percentile it reports the maximum as percentile 100.
func tailPercentile(xs []float64, minBeyond int) (pct, value float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	n := len(s)
	for _, p := range tailLadder {
		if k := nearestRank(p, n); n-k >= minBeyond {
			return p, s[k-1]
		}
	}
	return 100, s[n-1]
}

// referenceSection extracts one experiment's block from a results
// reference in the format cmd/mtpref prints: the "== <id> (...) ==" header
// through the blank line after its "[<id> completed ...]" footer. The
// footer carries host timings and is dropped, so two sections compare
// equal exactly when their tables match. ok is false when the section is
// absent.
func referenceSection(ref, id string) (section string, ok bool) {
	header := "== " + id + " ("
	footer := "[" + id + " completed"
	var b strings.Builder
	in := false
	for _, line := range strings.SplitAfter(ref, "\n") {
		if !in {
			if strings.HasPrefix(line, header) {
				in, ok = true, true
				b.WriteString(line)
			}
			continue
		}
		if strings.HasPrefix(line, "== ") {
			break
		}
		if !strings.HasPrefix(line, footer) {
			b.WriteString(line)
		}
	}
	return b.String(), ok
}
