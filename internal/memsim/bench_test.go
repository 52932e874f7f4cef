package memsim

import (
	"testing"

	"strider/internal/arch"
)

func BenchmarkLoadHit(b *testing.B) {
	m := New(arch.Pentium4())
	m.Load(0x10000, 4, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Load(0x10000, 4, uint64(i)+1000)
	}
}

// BenchmarkProbeHit drives the same steady single-line hit stream as
// BenchmarkLoadHit through the inline hit lane (probe + full-path
// fallback, the exact shape the interpreter compiles) — the pair's
// ratio is the per-access saving the probe buys on an L1 memo hit.
func BenchmarkProbeHit(b *testing.B) {
	m := New(arch.Pentium4())
	m.Load(0x10000, 4, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.LoadHit(0x10000, uint64(i)+1000); !ok {
			m.LoadAt(0x10000, 4, uint64(i)+1000, 0)
		}
	}
}

func BenchmarkLoadStreamMiss(b *testing.B) {
	m := New(arch.AthlonMP())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Load(uint32(i)*64, 4, uint64(i)*100)
	}
}

func BenchmarkPrefetch(b *testing.B) {
	m := New(arch.AthlonMP())
	m.Load(0x10000, 4, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Prefetch(0x10000+uint32(i%60)*64, false, uint64(i)*100)
	}
}

// BenchmarkDTLBMiss walks page-stride loads over 256 pages on the
// Pentium 4, four times its 64-entry fully associative DTLB, so every
// access misses the DTLB and the fill takes the 64-way victim path.
func BenchmarkDTLBMiss(b *testing.B) {
	m := New(arch.Pentium4())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Load(uint32(i%256)<<12, 4, uint64(i)*100)
	}
}

// BenchmarkStreamAlloc feeds the default stream detector misses that hop
// to a new page on every reference, over 64 pages (four times its
// 16-entry table), so every train allocates a stream and evicts one.
func BenchmarkStreamAlloc(b *testing.B) {
	m := New(arch.Pentium4())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.hw.Train(uint64(i%64)<<12|uint64(i%32)<<7, 0, uint64(i))
	}
}
