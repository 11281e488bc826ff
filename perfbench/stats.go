package main

import (
	"math"
	"sort"
	"time"
)

// rng is splitmix64: a tiny seeded generator, so every input the
// benchmark makes is a function of --seed alone.
type rng struct{ s uint64 }

func newRNG(seed, lane uint64) *rng {
	return &rng{s: seed*0x9e3779b97f4a7c15 ^ lane*0xbf58476d1ce4e5b9}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a draw in [0,n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// pctNs returns the q-quantile (nearest rank) of durations in
// nanoseconds; xs is sorted in place.
func pctNs(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(xs[i])
}

// latencies are per-operation latencies with each operation's due time,
// both in ns from the start of the phase that issued it.
type latencies struct{ at, ns []int64 }

func (l *latencies) add(at, ns time.Duration) {
	l.at = append(l.at, at.Nanoseconds())
	l.ns = append(l.ns, ns.Nanoseconds())
}

func (l *latencies) merge(m latencies) {
	l.at = append(l.at, m.at...)
	l.ns = append(l.ns, m.ns...)
}

// pct is the q-quantile over every operation.
func (l *latencies) pct(q float64) float64 {
	return pctNs(append([]int64(nil), l.ns...), q)
}

// windowPct is the median over consecutive windows of the q-quantile
// within each window (by due time; windows with fewer than minN
// operations are skipped). Unlike one quantile over the whole phase, a
// single host stall moves only the window it falls in, so the figure
// reports the tail a typical second has.
func (l *latencies) windowPct(window time.Duration, q float64, minN int) float64 {
	buckets := map[int64][]int64{}
	for i, at := range l.at {
		w := at / window.Nanoseconds()
		buckets[w] = append(buckets[w], l.ns[i])
	}
	var per []float64
	for _, b := range buckets {
		if len(b) >= minN {
			per = append(per, pctNs(b, q))
		}
	}
	return median(per)
}

// fifthMedian is the median latency of the operations due in the k-th
// fifth (k = 0..4) of a phase lasting span.
func (l *latencies) fifthMedian(k int, span time.Duration) float64 {
	lo, hi := int64(k)*span.Nanoseconds()/5, int64(k+1)*span.Nanoseconds()/5
	var xs []int64
	for i, at := range l.at {
		if at >= lo && at < hi {
			xs = append(xs, l.ns[i])
		}
	}
	return pctNs(xs, 0.5)
}

// median returns the median of xs (sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles mirrors Python's statistics.quantiles(data, n=4) with its
// default exclusive method, so the repeat mode judges spread exactly as
// the benchmark's contract states it.
func quartiles(data []float64) (q1, q2, q3 float64) {
	xs := append([]float64(nil), data...)
	sort.Float64s(xs)
	ld := len(xs)
	if ld < 2 {
		if ld == 1 {
			return xs[0], xs[0], xs[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	var out [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// ms and us convert nanoseconds.
func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }

// perSample is the mean cost of n samples processed in d.
func perSample(d time.Duration, n int64) float64 { return float64(d.Nanoseconds()) / float64(n) }
