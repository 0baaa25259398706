package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (nearest rank) of sorted xs, or NaN
// when xs is empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// dist is a sample of one timing.
type dist struct{ xs []float64 }

func (d *dist) add(x float64) { d.xs = append(d.xs, x) }

func (d *dist) q(q float64) float64 {
	sort.Float64s(d.xs)
	return quantile(d.xs, q)
}

func (d *dist) max() float64 {
	m := 0.0
	for _, x := range d.xs {
		m = math.Max(m, x)
	}
	return m
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio divides, returning 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
