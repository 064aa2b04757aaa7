package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// (choosing-metrics: "the highest percentile that has at least ten samples
// beyond it"). p90 therefore needs n >= 100.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples. It refuses a percentile that fewer than minBeyond samples lie
// beyond: a tail read off two or three points is noise, not a metric.
func percentile(samples []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v out of range (0,100)", p)
	}
	n := len(samples)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%v needs at least %d samples beyond it, have %d of %d", p, minBeyond, max(n-rank, 0), n)
	}
	s := sorted(samples)
	return s[rank-1], nil
}

func sorted(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// median is the usual middle value (mean of the middle two for even n);
// it has no sample-count floor because every timing here reports one.
func median(samples []float64) float64 {
	s := sorted(samples)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), because that is
// how the driver computes the spread it holds this benchmark to. Fewer than
// two samples have no spread; both quartiles are then the sample itself.
func quartiles(samples []float64) (q1, q3 float64) {
	s := sorted(samples)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // i-th of the 3 cut points, 1-based
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// summary is one metric's samples reduced for the ledger.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(samples []float64) summary {
	s := sorted(samples)
	if len(s) == 0 {
		return summary{}
	}
	q1, q3 := quartiles(s)
	return summary{N: len(s), Median: median(s), Min: s[0], Max: s[len(s)-1], Q1: q1, Q3: q3}
}

// spread is the interquartile distance as a share of the median — the
// figure the driver compares with a metric's bound. It is unknown (ok false)
// below three samples.
func (s summary) spread() (share float64, ok bool) {
	if s.N < 3 || s.Median == 0 {
		return 0, false
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median), true
}
