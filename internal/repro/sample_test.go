package repro

import (
	"errors"
	"slices"
	"sort"
	"testing"
)

// sampleDomains are the domain sizes the ECDF equivalence checks pick
// from: the two smallest domains, the default 2^12 efficiency domain,
// that domain extended by PaddedMedian's two ±inf sentinels, and a
// 2^20 domain whose 20-bit indices take two radix passes.
var sampleDomains = []int{2, 3, 1 << 12, 1<<12 + 2, 1 << 20}

// refECDF is the reference empirical CDF: sort.Ints over a copy of the
// sample, with the rank arithmetic of the copy-and-sort ECDF that
// Sample replaced.
type refECDF []int

func newRefECDF(indices []int) refECDF {
	ref := slices.Clone(indices)
	sort.Ints(ref)
	return ref
}

// countLE counts by linear scan, independent of any binary search.
func (r refECDF) countLE(x int) int {
	c := 0
	for _, v := range r {
		if v <= x {
			c++
		}
	}
	return c
}

func (r refECDF) fractionLE(x int) float64 {
	if len(r) == 0 {
		return 0
	}
	return float64(r.countLE(x)) / float64(len(r))
}

func (r refECDF) quantile(p float64) (int, bool) {
	n := len(r)
	if n == 0 {
		return 0, false
	}
	if p <= 0 {
		return r[0], true
	}
	k := int(p * float64(n))
	if float64(k) < p*float64(n) {
		k++
	}
	k = max(1, min(k, n))
	return r[k-1], true
}

// checkSampleMatchesSort builds a Sample over [0, size) and compares
// every ECDF query with the sort.Ints reference.
func checkSampleMatchesSort(t *testing.T, indices []int, size int, ps []float64) {
	t.Helper()
	orig := slices.Clone(indices)
	s, err := NewSample(indices, size)
	if err != nil {
		t.Fatalf("NewSample(size=%d, n=%d): %v", size, len(indices), err)
	}
	if !slices.Equal(indices, orig) {
		t.Fatal("NewSample modified its input")
	}
	if !slices.Equal(s.Draws(), orig) {
		t.Fatal("Draws differs from the draw order")
	}
	ref := newRefECDF(indices)
	if !slices.Equal(s.sorted, ref) {
		t.Fatalf("size=%d: radix-sorted view differs from sort.Ints", size)
	}
	if s.N() != len(ref) || s.DomainSize() != size {
		t.Fatalf("N=%d DomainSize=%d, want %d, %d", s.N(), s.DomainSize(), len(ref), size)
	}

	probes := []int{-1, 0, 1, size - 2, size - 1, size}
	for k, v := range ref {
		if k >= 64 {
			break
		}
		probes = append(probes, v-1, v, v+1)
	}
	for _, x := range probes {
		if got, want := s.CountLE(x), ref.countLE(x); got != want {
			t.Fatalf("size=%d CountLE(%d) = %d, want %d", size, x, got, want)
		}
		if got, want := s.FractionLE(x), ref.fractionLE(x); got != want {
			t.Fatalf("size=%d FractionLE(%d) = %v, want %v", size, x, got, want)
		}
	}
	for _, p := range ps {
		got, gotOK := s.Quantile(p)
		want, wantOK := ref.quantile(p)
		if got != want || gotOK != wantOK {
			t.Fatalf("size=%d Quantile(%v) = %d/%v, want %d/%v", size, p, got, gotOK, want, wantOK)
		}
	}
	gotMin, okMin := s.Min()
	gotMax, okMax := s.Max()
	if okMin != (len(ref) > 0) || okMax != (len(ref) > 0) {
		t.Fatalf("Min/Max ok = %v/%v on %d samples", okMin, okMax, len(ref))
	}
	if len(ref) > 0 && (gotMin != ref[0] || gotMax != ref[len(ref)-1]) {
		t.Fatalf("Min/Max = %d/%d, want %d/%d", gotMin, gotMax, ref[0], ref[len(ref)-1])
	}
}

// FuzzSampleMatchesSort checks the radix-built ECDF against sort.Ints
// on fuzzed samples: raw supplies three bytes per index, reduced into
// the picked domain; bad != 0 plants one out-of-range index, which
// NewSample must reject.
func FuzzSampleMatchesSort(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 0, 1, 0, 0, 1, 0, 0}, uint16(30000), int8(0))
	f.Add(uint8(1), []byte{2, 0, 0, 0, 0, 0, 2, 0, 0, 1, 0, 0}, uint16(65535), int8(0))
	f.Add(uint8(2), []byte{0xff, 0x0f, 0, 0, 0, 0, 7, 3, 0}, uint16(1), int8(0))
	f.Add(uint8(3), []byte{0x01, 0x10, 0, 0, 0, 0, 0x00, 0x10, 0}, uint16(32768), int8(0))
	f.Add(uint8(4), []byte{0xff, 0xff, 0x0f, 0, 0, 0, 0x34, 0x12, 0x05}, uint16(50000), int8(0))
	f.Add(uint8(2), []byte{5, 0, 0, 6, 0, 0}, uint16(0), int8(-1))
	f.Add(uint8(4), []byte{5, 0, 0, 6, 0, 0}, uint16(1), int8(1))
	f.Add(uint8(0), []byte{1, 0, 0}, uint16(0), int8(1))
	f.Add(uint8(3), []byte{}, uint16(100), int8(0))
	f.Fuzz(func(t *testing.T, pick uint8, raw []byte, pRaw uint16, bad int8) {
		size := sampleDomains[int(pick)%len(sampleDomains)]
		indices := make([]int, 0, len(raw)/3)
		for k := 0; k+3 <= len(raw); k += 3 {
			v := int(raw[k]) | int(raw[k+1])<<8 | int(raw[k+2])<<16
			indices = append(indices, v%size)
		}
		if bad != 0 && len(indices) > 0 {
			at := int(pRaw) % len(indices)
			if bad < 0 {
				indices[at] = int(bad)
			} else {
				indices[at] = size + int(bad) - 1
			}
			if _, err := NewSample(indices, size); !errors.Is(err, ErrBadParam) {
				t.Fatalf("NewSample accepted index %d outside [0, %d): err=%v", indices[at], size, err)
			}
			return
		}
		p := float64(pRaw) / 65535
		checkSampleMatchesSort(t, indices, size, []float64{-0.5, 0, 1e-9, p, 0.5, 1 - 1e-9, 1, 1.5})
	})
}

// TestSampleMatchesSortDomains runs the equivalence check on dense
// deterministic samples of every domain, always including the edge
// cells 0 and size-1.
func TestSampleMatchesSortDomains(t *testing.T) {
	for _, size := range sampleDomains {
		for _, n := range []int{1, 2, 17, 5000} {
			indices := make([]int, n)
			x := uint64(size)*0x9e3779b97f4a7c15 + uint64(n)
			for k := range indices {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				indices[k] = int(x % uint64(size))
			}
			indices[0] = size - 1
			if n > 1 {
				indices[n-1] = 0
			}
			checkSampleMatchesSort(t, indices, size, []float64{0, 0.1, 0.25, 0.5, 0.9, 1})
		}
	}
}
