package repro

import (
	"testing"

	"lcakp/internal/rng"
)

// benchSamples draws a deterministic sample set over the domain.
func benchSamples(n, size int) []int {
	src := rng.New(1)
	out := make([]int, n)
	for i := range out {
		out[i] = src.Intn(size)
	}
	return out
}

func BenchmarkECDFBuild(b *testing.B) {
	samples := benchSamples(50_000, 1<<12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewSample(samples, 1<<12); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkECDFQuery(b *testing.B) {
	e, err := NewSample(benchSamples(50_000, 1<<12), 1<<12)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.FractionLE(i % (1 << 12))
	}
}

func BenchmarkDomainIndex(b *testing.B) {
	d, err := NewDomain(1e-3, 1e9, 12)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Index(float64(i%1000) + 0.5)
	}
}

func BenchmarkTrieQuantile(b *testing.B) {
	samples, err := NewSample(benchSamples(20_000, 1<<12), 1<<12)
	if err != nil {
		b.Fatal(err)
	}
	est := Trie{Tau: 0.05}
	root := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Quantile(samples, 0.7, root.DeriveIndex("s", i), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPaddedMedianQuantile(b *testing.B) {
	samples, err := NewSample(benchSamples(20_000, 1<<12), 1<<12)
	if err != nil {
		b.Fatal(err)
	}
	est := PaddedMedian{Tau: 0.05}
	root := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Quantile(samples, 0.7, root.DeriveIndex("s", i), root.DeriveIndex("f", i)); err != nil {
			b.Fatal(err)
		}
	}
}
