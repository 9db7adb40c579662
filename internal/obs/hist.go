package obs

import (
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the number of log2 buckets in a Hist. Bucket b counts
// samples v with bits.Len64(v) == b, i.e. bucket 0 holds v==0 and bucket
// b>0 holds v in [2^(b-1), 2^b). 64 buckets cover the full uint64 range,
// so Record never needs a bounds branch beyond the Len64 itself.
const NumBuckets = 65

// Hist is a fixed-bucket log2 histogram. Record is two atomic adds —
// wait-free and zero-alloc — so it is safe inside non-blocking hot paths.
// The buckets are deliberately unpadded: a histogram is written by many
// goroutines but each sample touches one bucket plus the sum, and padding
// 65 buckets to a line each would cost 4KiB per histogram with dozens of
// histograms per server. Callers that need stripe isolation can keep one
// Hist per stripe and merge snapshots.
type Hist struct {
	buckets [NumBuckets]atomic.Int64
	sum     atomic.Int64
}

// bucketOf maps a sample to its bucket index: 0 for v==0, else floor(log2 v)+1.
func bucketOf(v uint64) int { return bits.Len64(v) }

// Record adds one sample. Wait-free, zero-alloc.
func (h *Hist) Record(v uint64) {
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(int64(v))
}

// Snapshot captures a point-in-time copy of the histogram. The copy is not
// atomic across buckets, but each bucket is individually consistent and
// counts only grow, so derived quantiles are sandwiched between the true
// quantiles at the start and end of the scan.
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	s.Sum = h.sum.Load()
	return s
}

// HistSnapshot is an immutable copy of a Hist, used for rendering and
// quantile estimation without re-reading atomics.
type HistSnapshot struct {
	Buckets [NumBuckets]int64
	Count   int64
	Sum     int64
}

// BucketUpper returns the exclusive upper bound of bucket b: the smallest
// value that does NOT fall in bucket b. Bucket 0 (v==0) has upper bound 1;
// the last bucket saturates at MaxUint64.
func BucketUpper(b int) uint64 {
	if b >= 64 {
		return ^uint64(0)
	}
	return uint64(1) << b
}

// Quantile estimates the q-th quantile (0 <= q <= 1) by locating the bucket
// containing the target rank and interpolating linearly inside it. With
// log2 buckets the estimate is within 2x of the true value, which is plenty
// for latency dashboards. Returns 0 on an empty snapshot.
func (s *HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for b := range s.Buckets {
		n := float64(s.Buckets[b])
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			if b == 0 {
				return 0
			}
			lo := float64(uint64(1) << (b - 1))
			hi := lo * 2
			if b >= 64 {
				hi = lo // avoid overflow; the top bucket is a point estimate
			}
			frac := (rank - cum) / n
			return uint64(lo + (hi-lo)*frac)
		}
		cum += n
	}
	return BucketUpper(NumBuckets - 1)
}
