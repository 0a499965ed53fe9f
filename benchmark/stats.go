package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of vals, or 0 for no samples. vals is not modified.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func median(vals []float64) float64 { return percentile(vals, 50) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// share is part ÷ whole, 0 when there is no whole.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// blockMedian times fn in blocks of per calls until budget is spent
// (at least 5 blocks) and returns the median per-call cost in
// nanoseconds. Probes use it so one scheduler hiccup cannot move a
// unit cost.
func blockMedian(budget time.Duration, per int, fn func(i int)) float64 {
	var blocks []float64
	start := time.Now()
	for i := 0; len(blocks) < 5 || time.Since(start) < budget; {
		t := time.Now()
		for range per {
			fn(i)
			i++
		}
		blocks = append(blocks, float64(time.Since(t))/float64(per))
	}
	return median(blocks)
}
