package main

import (
	"path/filepath"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a share of a machine. How much of it
// a run gets changes from minute to minute, which moves wall time by a
// factor of two, and the speed of the CPU time it does get drifts by tens
// of percent with the neighbours' load. So a probe samples a reference
// kernel on a thread of its own while each pass runs: fixed work that
// shares no code with the repository, so no change to the repository moves
// its time, only the host does. The end-to-end metrics are CPU time of the
// process under test, scaled by refKernelCPUS over the kernel's median CPU
// time per sample: CPU time at the reference speed.

const (
	// refKernelCPUS is a sample's median CPU seconds on the 2-vCPU
	// machine the bounds were set on, during the battery.
	refKernelCPUS = 0.0037
	// refNopCPUS is the median CPU seconds of a start of the nop program
	// (perfbench/nop) on the same machine. Set-up launches are scaled by
	// it instead: a process start is mostly the operating system's work.
	refNopCPUS = 0.00095
	// probeInterval is the time between the starts of two samples; a
	// sample takes about 3.5 ms of CPU, so the probe takes under 4% of one.
	probeInterval = 100 * time.Millisecond
)

// kernel is the reference kernel's memory, allocated once and kept, so
// samples after the first fault no pages in.
type kernel struct {
	tags []uint32 // a 4096-set, 8-way tag table
	mem  []uint64 // 8 MiB read behind the tag lookups
	buf  []byte   // 1 MiB cleared over and over
}

func newKernel() *kernel {
	return &kernel{
		tags: make([]uint32, 4096*8),
		mem:  make([]uint64, 1<<20),
		buf:  make([]byte, 1<<20),
	}
}

// run is one sample's work: a switch-dispatched bytecode loop (the
// interpreter's kind of work), tag lookups in a set-associative table over
// a strided and random address stream with a read of the array behind it
// (the cache simulator's), and clearing a buffer (the heap's and VM
// construction's). Its result only keeps the compiler from removing it.
func (k *kernel) run() uint64 {
	code := [...]byte{0, 1, 2, 3, 1, 4, 2, 0, 3, 5, 1, 2, 4, 0, 5, 3}
	acc, x := uint64(1), uint64(7)
	for i := 0; i < 25_000; i++ {
		for _, op := range code {
			switch op {
			case 0:
				acc += x
			case 1:
				acc ^= acc >> 7
			case 2:
				if acc&1 == 0 {
					x = x*3 + 1
				} else {
					x >>= 1
				}
			case 3:
				acc *= 0x9E3779B97F4A7C15
			case 4:
				x += acc & 0xff
			case 5:
				acc = acc<<3 | acc>>61
			}
		}
	}
	h := uint64(88172645463325252)
	addr := uint64(0)
	memMask := uint64(len(k.mem) - 1)
	for i := 0; i < 100_000; i++ {
		if i&3 == 0 {
			h ^= h << 13
			h ^= h >> 7
			h ^= h << 17
			addr = h
		} else {
			addr += 72
		}
		line := addr >> 6
		set := line & 4095
		tag := uint32(line >> 12)
		ways := k.tags[set*8 : set*8+8]
		hit := false
		for _, t := range ways {
			if t == tag {
				hit = true
				break
			}
		}
		if !hit {
			copy(ways[1:], ways[:7])
			ways[0] = tag
		}
		acc += k.mem[(addr>>3)&memMask]
	}
	for i := 0; i < 4; i++ {
		clear(k.buf)
		k.buf[(i*4099)%len(k.buf)] = byte(acc)
		acc += uint64(k.buf[i])
	}
	return acc ^ x
}

// probe samples the kernel on a thread of its own every probeInterval
// until finish, recording each sample's wall and thread CPU seconds.
type probe struct {
	stop        chan struct{}
	done        chan struct{}
	walls, cpus []float64
	sink        uint64
}

// probeKernel serves every probe of the process. A second kernel,
// allocated once the first was garbage, sampled three times slower for a
// whole traced verify-fuzz pass (the cause was not found), so the memory
// is allocated once, at the first pass.
var probeKernel *kernel

func startProbe() *probe {
	p := &probe{stop: make(chan struct{}), done: make(chan struct{})}
	if probeKernel == nil {
		probeKernel = newKernel()
	}
	k := probeKernel
	p.sink = k.run() // faults the memory in; not counted
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t := time.NewTicker(probeInterval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
			c0, t0 := threadCPU(), time.Now()
			p.sink += k.run()
			p.walls = append(p.walls, time.Since(t0).Seconds())
			p.cpus = append(p.cpus, threadCPU()-c0)
		}
	}()
	return p
}

// finish stops the probe and returns its samples.
func (p *probe) finish() (walls, cpus []float64) {
	close(p.stop)
	<-p.done
	return p.walls, p.cpus
}

// launchNop runs the nop program once and returns its CPU seconds.
func launchNop(c config) (float64, error) {
	ch, err := runChild(command(filepath.Join(c.bin, "nop")))
	return ch.cpuS, err
}

// threadCPU returns the calling thread's CPU seconds from
// CLOCK_THREAD_CPUTIME_ID, which unlike getrusage is not tick-sampled.
func threadCPU() float64 {
	var ts syscall.Timespec
	// Reading the calling thread's own clock cannot fail.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Nano()) / 1e9
}
