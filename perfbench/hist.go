package main

import (
	"math"
	"math/bits"
	"sort"
)

// histSub is the number of sub-bucket bits per power of two: 128 linear
// sub-buckets bound the relative error of a quantile to 1/128 (< 0.8%).
const histSub = 7

// hist is a log-linear latency histogram in nanoseconds. Values below
// 2^histSub land in exact buckets; above that, each power of two splits
// into 2^histSub equal buckets. The benchmark keeps its own ruler here so
// that changes to the code under test cannot change how it is measured.
// Not safe for concurrent use: each goroutine records into its own.
type hist struct {
	counts [64 << histSub]uint64
	n      uint64
	sum    uint64
	max    uint64
}

func histBucket(v uint64) int {
	if v < 1<<histSub {
		return int(v)
	}
	e := bits.Len64(v) - histSub - 1
	return (e+1)<<histSub | int(v>>e)&(1<<histSub-1)
}

// histRange returns the smallest value of bucket b and the bucket width.
func histRange(b int) (low, width uint64) {
	if b < 1<<histSub {
		return uint64(b), 1
	}
	e := b>>histSub - 1
	m := uint64(b&(1<<histSub-1) | 1<<histSub)
	return m << e, 1 << e
}

func (h *hist) record(ns uint64) {
	h.counts[histBucket(ns)]++
	h.n++
	h.sum += ns
	if ns > h.max {
		h.max = ns
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// mean returns the mean in nanoseconds, 0 when empty.
func (h *hist) mean() float64 { return ratio(float64(h.sum), float64(h.n)) }

// quantile returns the q-quantile in nanoseconds, 0 when empty. Within
// the bucket holding the ceil(q*n)-th smallest sample it interpolates by
// rank, treating the bucket's samples as spread evenly over its width, so
// the result moves smoothly with the data instead of in bucket steps.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for b, c := range h.counts {
		if cum+c >= rank {
			low, width := histRange(b)
			frac := (float64(rank-cum) - 0.5) / float64(c)
			return float64(low) + frac*float64(width)
		}
		cum += c
	}
	return float64(h.max)
}

// quantileOf returns the q-quantile of xs, interpolating linearly between
// the two nearest order statistics; 0 for none. xs is left unchanged.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }
