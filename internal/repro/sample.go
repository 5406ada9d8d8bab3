package repro

import (
	"fmt"
	"math/bits"
	"sort"
)

// Sample is the input of every Estimator: a sample of domain indices
// over [0, DomainSize()), validated once and held in two views.
//
//   - Draws is the sample in draw order, for estimators whose output
//     depends on sample order (PaddedMedian re-samples by position).
//   - The sorted view answers the empirical-CDF queries CountLE,
//     FractionLE, Quantile, Min and Max.
//
// Algorithm 2 asks the estimator for about 1/ε quantiles of one sample,
// so the sorted view is built once, at construction, by an LSD radix
// sort over the domain's index bits, rather than once per call. A
// Sample is read-only after construction and safe for concurrent use.
type Sample struct {
	draws      []int
	sorted     []int
	domainSize int
}

// maxDigitBits caps the radix digit width: a counting pass per 16 bits
// of index keeps the count table at 2^16 entries, so even a 2^30-cell
// domain sorts in two passes without a domain-sized table.
const maxDigitBits = 16

// NewSample validates indices against the domain [0, domainSize) and
// builds the sorted view. indices is kept, not copied, as the
// draw-order view, so the caller must not modify it afterwards. An
// empty sample is valid; estimators reject it with ErrNoSamples.
func NewSample(indices []int, domainSize int) (*Sample, error) {
	if domainSize < 2 {
		return nil, fmt.Errorf("%w: domain size %d", ErrBadParam, domainSize)
	}
	for k, x := range indices {
		if x < 0 || x >= domainSize {
			return nil, fmt.Errorf("%w: sample %d is index %d, outside domain [0, %d)", ErrBadParam, k, x, domainSize)
		}
	}
	return &Sample{
		draws:      indices,
		sorted:     radixSort(indices, bits.Len(uint(domainSize-1))),
		domainSize: domainSize,
	}, nil
}

// radixSort returns keys, each in [0, 2^keyBits), in ascending order
// without modifying keys: an LSD radix sort with digits of at most
// maxDigitBits bits. Equal ints are indistinguishable, so the result
// equals sort.Ints element for element.
func radixSort(keys []int, keyBits int) []int {
	if len(keys) == 0 {
		return nil
	}
	width := min(keyBits, maxDigitBits)
	count := make([]int, 1<<width)
	mask := len(count) - 1
	src, dst := keys, make([]int, len(keys))
	var spare []int
	if keyBits > width {
		spare = make([]int, len(keys))
	}
	for shift := 0; ; shift += width {
		clear(count)
		for _, k := range src {
			count[k>>shift&mask]++
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, k := range src {
			d := k >> shift & mask
			dst[count[d]] = k
			count[d]++
		}
		if shift+width >= keyBits {
			return dst
		}
		// The pass just written is the next pass's input; the older
		// buffer (never keys itself) becomes the output.
		src, dst, spare = dst, spare, dst
	}
}

// N returns the sample size.
func (s *Sample) N() int { return len(s.sorted) }

// DomainSize returns the size of the index domain the sample lives in.
func (s *Sample) DomainSize() int { return s.domainSize }

// Draws returns the sample in draw order. The slice is shared; callers
// must not modify it.
func (s *Sample) Draws() []int { return s.draws }

// CountLE returns how many samples are <= x.
func (s *Sample) CountLE(x int) int {
	return sort.SearchInts(s.sorted, x+1)
}

// FractionLE returns the empirical probability of a sample being <= x.
// It returns 0 on an empty sample.
func (s *Sample) FractionLE(x int) float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	return float64(s.CountLE(x)) / float64(len(s.sorted))
}

// Quantile returns the smallest index x in the sample such that
// FractionLE(x) >= p (the standard empirical p-quantile). For p <= 0
// it returns the minimum sample; for p >= 1 the maximum. It returns
// ok=false on an empty sample.
func (s *Sample) Quantile(p float64) (x int, ok bool) {
	n := len(s.sorted)
	if n == 0 {
		return 0, false
	}
	if p <= 0 {
		return s.sorted[0], true
	}
	k := int(p * float64(n))
	if float64(k) < p*float64(n) {
		k++
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return s.sorted[k-1], true
}

// Min returns the smallest sample and ok=false when empty.
func (s *Sample) Min() (int, bool) {
	if len(s.sorted) == 0 {
		return 0, false
	}
	return s.sorted[0], true
}

// Max returns the largest sample and ok=false when empty.
func (s *Sample) Max() (int, bool) {
	if len(s.sorted) == 0 {
		return 0, false
	}
	return s.sorted[len(s.sorted)-1], true
}
