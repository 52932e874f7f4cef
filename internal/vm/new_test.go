package vm_test

import (
	"runtime"
	"testing"

	"strider/internal/arch"
	"strider/internal/ir"
	"strider/internal/vm"
	"strider/internal/workloads"
)

// newBytes returns the Go heap bytes one vm.New allocates on average,
// over n constructions.
func newBytes(prog *ir.Program, cfg vm.Config, n int) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		vm.New(prog, cfg)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestNewAllocatesByUse pins VM construction cost to what a program can
// touch before it runs, not to the configured heap size: a 64 MiB VM
// allocates the 64 KiB initial heap backing, a 64-frame stack and the
// memory simulator's cache metadata, which is larger on the Athlon MP.
func TestNewAllocatesByUse(t *testing.T) {
	w, err := workloads.ByName("search")
	if err != nil {
		t.Fatal(err)
	}
	prog := w.Build(workloads.SizeSmall)
	for _, c := range []struct {
		m     *arch.Machine
		bound uint64
	}{
		{arch.Pentium4(), 160 << 10},
		{arch.AthlonMP(), 256 << 10},
	} {
		got := newBytes(prog, vm.Config{Machine: c.m, HeapBytes: 64 << 20}, 20)
		if got >= c.bound {
			t.Errorf("%s: vm.New allocates %d bytes, want under %d", c.m.Name, got, c.bound)
		}
	}
}

// BenchmarkNew measures VM construction with a 64 MiB heap, the
// default, on each machine.
func BenchmarkNew(b *testing.B) {
	w, err := workloads.ByName("search")
	if err != nil {
		b.Fatal(err)
	}
	prog := w.Build(workloads.SizeSmall)
	for _, m := range []*arch.Machine{arch.Pentium4(), arch.AthlonMP()} {
		b.Run(m.Name, func(b *testing.B) {
			cfg := vm.Config{Machine: m, HeapBytes: 64 << 20}
			b.ReportAllocs()
			for range b.N {
				vm.New(prog, cfg)
			}
		})
	}
}
