package main

import (
	"math"
	"sort"
	"time"
)

// quartiles returns Q1, median and Q3 of xs by the rule of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) and
// statistics.median, so spreads computed here match the ones the
// benchmark's acceptance rule is stated in.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	if n%2 == 1 {
		med = d[n/2]
	} else {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// pct is the nearest-rank q-quantile of durations (sorted in place).
func pct(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	return ds[max(0, min(i, len(ds)-1))]
}

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
