package main

import (
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// subBits sets the histogram's resolution: each power-of-two octave is
// split into 2^subBits linear buckets, so a reported quantile is within
// 1/2^subBits (0.4%) of the true sample value. Values below 2^subBits ns
// are recorded exactly.
const subBits = 8

const (
	subCount   = 1 << subBits
	histLength = (64 - subBits) * subCount
)

// hist is a log-linear histogram of signed durations in nanoseconds. It is
// safe for concurrent use (atomic bucket counts) and allocates nothing
// after construction, so recording into it does not disturb the
// allocation counts the benchmark reports.
type hist struct {
	pos, neg []atomic.Int64
	n        atomic.Int64
}

func newHist() *hist {
	return &hist{pos: make([]atomic.Int64, histLength), neg: make([]atomic.Int64, histLength)}
}

func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	shift := bits.Len64(v) - subBits - 1
	return shift*subCount + int(v>>uint(shift))
}

// bucketMid returns the midpoint of bucket i (the exact value for the
// linear region).
func bucketMid(i int) uint64 {
	if i < 2*subCount {
		return uint64(i)
	}
	shift := i/subCount - 1
	lo := uint64(i-shift*subCount) << uint(shift)
	return lo + (uint64(1)<<uint(shift))/2
}

func (h *hist) add(d time.Duration) {
	if d >= 0 {
		h.pos[bucketOf(uint64(d))].Add(1)
	} else {
		h.neg[bucketOf(uint64(-d))].Add(1)
	}
	h.n.Add(1)
}

func (h *hist) count() int64 { return h.n.Load() }

// quantile returns the nearest-rank q-quantile (0 when empty).
func (h *hist) quantile(q float64) time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := int64(q*float64(n) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := histLength - 1; i >= 0; i-- {
		if seen += h.neg[i].Load(); seen >= rank {
			return -time.Duration(bucketMid(i))
		}
	}
	for i := 0; i < histLength; i++ {
		if seen += h.pos[i].Load(); seen >= rank {
			return time.Duration(bucketMid(i))
		}
	}
	return time.Duration(bucketMid(histLength - 1))
}

// median returns the median of xs (0 when empty); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
