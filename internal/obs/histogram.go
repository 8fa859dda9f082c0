package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram is a lock-free log-linear histogram for non-negative int64
// observations, nanosecond-scale by convention. The bucket layout follows
// the HdrHistogram idea: values up to 2^(subBits+1) are recorded exactly,
// larger values fall into one of 2^subBits linear sub-buckets per power of
// two, bounding the relative quantile error by 2^-subBits (≈1.6% with
// subBits = 6). Observations are single atomic adds; snapshots are
// mergeable across histograms (and across processes, if serialized), so
// per-worker recordings aggregate into one tail estimate.
// Observations are striped across histLanes to keep concurrent observers
// off each other's cache lines: with one shared lane, every Observe from
// every goroutine hammers the same count/sum words, and that true sharing
// costs several percent of throughput on the crypto-bound hot path (the
// retired E20 measured it). The lane is picked from the low bits of the observed value
// itself — nanosecond timings have effectively uniform low bits, so this
// spreads load without needing any goroutine identity.
type Histogram struct {
	lanes [histLanes]histLane
}

type histLane struct {
	count   atomic.Int64
	sum     atomic.Int64
	maxSeen atomic.Int64
	// pad the hot scalars of consecutive lanes onto separate cache lines;
	// the bucket array between lanes makes inter-lane sharing unlikely
	// anyway, but the scalars see every observation.
	_       [5]int64
	buckets [numBuckets]atomic.Int64
}

// histLanes must be a power of two (lane = value & (histLanes-1)).
const histLanes = 4

const (
	// subBits fixes the resolution: 2^subBits linear sub-buckets per
	// octave, i.e. a worst-case relative error of 1/64 on any quantile.
	subBits = 6
	subMask = (1 << subBits) - 1

	// The first two octaves (values < 2^(subBits+1)) are exact; above
	// that each of the remaining 63-subBits octaves contributes 2^subBits
	// buckets. Values are clamped to int64 max, which lands in the top
	// bucket.
	numBuckets = (64 - subBits) << subBits
)

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	// exp is the number of significant bits; values below 2^(subBits+1)
	// map to themselves (exact buckets 0..2^(subBits+1)-1).
	exp := bits.Len64(u)
	if exp <= subBits+1 {
		return int(u)
	}
	// Keep the top subBits+1 bits: the leading bit selects the octave,
	// the next subBits bits the linear sub-bucket within it.
	shift := exp - (subBits + 1)
	idx := (shift << subBits) + int(u>>uint(shift))
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

// bucketUpper returns the largest value mapping to bucket idx (the upper
// bound reported for quantiles in that bucket).
func bucketUpper(idx int) int64 {
	if idx < (1 << (subBits + 1)) {
		return int64(idx)
	}
	// Buckets above the exact range encode as shift*2^subBits + sub with
	// sub in [2^subBits, 2^(subBits+1)); the sub term carries one into
	// idx>>subBits, hence the -1.
	shift := (idx >> subBits) - 1
	base := uint64(idx&subMask|(1<<subBits)) << uint(shift)
	upper := base + (uint64(1)<<uint(shift) - 1)
	if upper > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(upper)
}

// Observe records one value. It is safe for concurrent use and costs three
// atomic adds (plus one conditional store for the max), on a lane that
// concurrent observers mostly don't share.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	l := &h.lanes[v&(histLanes-1)]
	l.count.Add(1)
	l.sum.Add(v)
	for {
		cur := l.maxSeen.Load()
		if v <= cur || l.maxSeen.CompareAndSwap(cur, v) {
			break
		}
	}
	l.buckets[bucketIndex(v)].Add(1)
}

// HistSnapshot is a point-in-time copy of a histogram, safe to read,
// merge, and quantile without further synchronization. Buckets is sparse:
// only non-empty buckets appear.
type HistSnapshot struct {
	Count   int64
	Sum     int64
	Max     int64
	Buckets map[int]int64
}

// Snapshot copies the histogram's current state, merging all lanes.
// Concurrent observations during the copy may be partially included;
// counts remain consistent enough for monitoring (each bucket is read
// once, atomically).
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Buckets: make(map[int]int64)}
	for l := range h.lanes {
		lane := &h.lanes[l]
		s.Count += lane.count.Load()
		s.Sum += lane.sum.Load()
		if m := lane.maxSeen.Load(); m > s.Max {
			s.Max = m
		}
		for i := range lane.buckets {
			if n := lane.buckets[i].Load(); n > 0 {
				s.Buckets[i] += n
			}
		}
	}
	return s
}

// Quantile returns the value at quantile q (0 < q <= 1) as the upper bound
// of the bucket containing the q-th ranked observation — an overestimate
// by at most the bucket's relative width (1/64). Returns 0 for an empty
// snapshot.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	// Walk buckets in index order; the sparse map needs sorting, but
	// snapshots are cold-path (scrapes, REPL stats), so sorting is fine.
	idxs := make([]int, 0, len(s.Buckets))
	for i := range s.Buckets {
		idxs = append(idxs, i)
	}
	sortInts(idxs)
	var seen int64
	for _, i := range idxs {
		seen += s.Buckets[i]
		if seen >= rank {
			return bucketUpper(i)
		}
	}
	return s.Max
}

// sortInts is an insertion sort; snapshots have at most a few dozen
// non-empty buckets, where this beats the generic sort on allocations.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
