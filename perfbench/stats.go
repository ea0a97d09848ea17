package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples a percentile must have beyond it
// before it is reported: p99 needs at least 1000 samples, p50 twenty.
const minTail = 10

// inf stands for the latency of a failed operation.
var inf = math.Inf(1)

// dist is a sample of one measured quantity. Failed operations are added
// as +Inf, so they count as missing every latency limit.
type dist struct {
	xs     []float64
	sorted bool
}

func (d *dist) add(v float64) {
	d.xs = append(d.xs, v)
	d.sorted = false
}

func (d *dist) n() int { return len(d.xs) }

func (d *dist) sort() {
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
}

// supported reports whether the sample has at least minTail values
// beyond quantile q.
func supported(n int, q float64) bool {
	return n > 0 && float64(n)*(1-q) >= minTail-1e-9
}

// pct returns the nearest-rank q-quantile, and false when the sample is
// too small to support it (see supported).
func (d *dist) pct(q float64) (float64, bool) {
	if !supported(len(d.xs), q) {
		return 0, false
	}
	d.sort()
	rank := int(math.Ceil(q*float64(len(d.xs)))) - 1
	rank = max(0, min(rank, len(d.xs)-1))
	return d.xs[rank], true
}

// median is pct(0.5) without the tail rule, for small samples of
// repeated measurements (set-up times, replays) reported as medians.
func (d *dist) median() float64 {
	if len(d.xs) == 0 {
		return 0
	}
	d.sort()
	n := len(d.xs)
	if n%2 == 1 {
		return d.xs[n/2]
	}
	return (d.xs[n/2-1] + d.xs[n/2]) / 2
}

func (d *dist) mean() float64 {
	if len(d.xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range d.xs {
		s += x
	}
	return s / float64(len(d.xs))
}

// describe renders the sample count and every one of p50, p90, p99 and
// p99.9 the sample supports, in the unit the values carry.
func (d *dist) describe(unit string) string {
	s := fmt.Sprintf("n=%d", d.n())
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}, {"p99.9", 0.999}} {
		if v, ok := d.pct(p.q); ok {
			s += fmt.Sprintf(" %s=%.4g%s", p.name, v, unit)
		}
	}
	return s
}
