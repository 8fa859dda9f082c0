package main

import (
	"math"
	"sort"
)

// tailSupported reports whether n samples support percentile q by the
// rule "at least ten samples lie beyond it".
func tailSupported(n int, q float64) bool {
	beyondPerMille := 1000 - int(math.Round(q*1000)) // integers: 100 x (1 - 0.9) is 9.999... in floats
	return n*beyondPerMille >= 10*1000
}

// pickTail returns the highest of want, 0.95, 0.90 and 0.50 that n
// samples support. A p99 asked of 400 samples is answered with their p95:
// the name in the report stays fixed, the sample count beside it says
// what it can carry.
func pickTail(n int, want float64) float64 {
	for _, q := range []float64{want, 0.95, 0.90} {
		if q <= want && tailSupported(n, q) {
			return q
		}
	}
	return 0.50
}

// quantileSorted returns the q-quantile of sorted values by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantileSorted(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// quartiles mirrors Python's statistics.quantiles(v, n=4) (exclusive
// method), which is what the driver uses for its spread check.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return at(1), at(2), at(3)
}

// relIQR is the distance between the first and third quartile as a share
// of the median.
func relIQR(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// sample is one completed operation as the load generator saw it.
type sample struct {
	end   int64 // ns since the run's time base
	latNs int64 // from start (closed loop) or due time (open loop)
	class opClass
}

type opClass uint8

const (
	classWrite opClass = iota // Write, or kv Put
	classRead                 // Read, or kv GetFrom
	classOther                // own-namespace Get and Delete: throughput only
	numClasses
)

// windowed splits [from,to) into equal windows holding about perWindow
// samples each (at least one window, at most maxWindows) and returns, per
// window, the samples that ended in it.
func windowed(samples []sample, from, to int64, perWindow, maxWindows int) [][]sample {
	n := len(samples) / perWindow
	if n < 1 {
		n = 1
	}
	if n > maxWindows {
		n = maxWindows
	}
	out := make([][]sample, n)
	span := to - from
	if span <= 0 {
		out[0] = samples
		return out
	}
	for _, s := range samples {
		i := int((s.end - from) * int64(n) / span)
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		out[i] = append(out[i], s)
	}
	return out
}

// latQuantile returns quantile q (by pickTail's rule) of the latencies of
// the samples accepted by keep, in microseconds, and the sample count.
func latQuantile(samples []sample, keep func(opClass) bool, q float64) (us float64, n int) {
	var lat []float64
	for _, s := range samples {
		if keep(s.class) {
			lat = append(lat, float64(s.latNs)/1e3)
		}
	}
	if len(lat) == 0 {
		return 0, 0
	}
	sort.Float64s(lat)
	return quantileSorted(lat, pickTail(len(lat), q)), len(lat)
}

// windowMedian computes stat on each window and returns the median of the
// windows that produced a value. Reporting the median of per-window
// percentiles keeps one stalled second (a GC cycle, a neighbour on the
// host) from deciding a whole run's number. (The best window, tried as an
// alternative, spread two to five times wider over ten runs.)
func windowMedian(wins [][]sample, stat func([]sample) (float64, bool)) float64 {
	var vals []float64
	for _, w := range wins {
		if v, ok := stat(w); ok {
			vals = append(vals, v)
		}
	}
	return median(vals)
}

func isClass(c opClass) func(opClass) bool { return func(x opClass) bool { return x == c } }

func timedClasses(c opClass) bool { return c == classWrite || c == classRead }

func anyClass(opClass) bool { return true }

// round2 keeps two significant figures, the precision calibrated rates
// are frozen at.
func round2(x float64) float64 {
	if x == 0 {
		return 0
	}
	mag := math.Pow(10, math.Floor(math.Log10(math.Abs(x)))-1)
	return math.Round(x/mag) * mag
}
