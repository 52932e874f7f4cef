package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"strider/internal/ir"
	"strider/internal/oracle"
	"strider/internal/progfuzz"
	"strider/internal/vm"
	"strider/perfbench/profile"
)

// verifyBlock is how many consecutive progfuzz seeds one block verifies:
// four of each of the 16 scenarios (seed & 0xF). A run verifies
// consecutive blocks until its window is spent; the simulated counters
// and the digest are those of the first block, which every run completes.
const verifyBlock = 64

// verifyHeap is FuzzDifferential's heap size.
const verifyHeap = 8 << 20

// verifyReport is what a verify worker writes.
type verifyReport struct {
	ReadyUnixNs int64     `json:"ready_unix_ns"`
	BlockNs     []int64   `json:"block_ns"`
	BlockRSSMiB []float64 `json:"block_rss_mib"`
	ProgramMs   []float64 `json:"program_ms"`
	Cells       int       `json:"cells"`
	Loads       uint64    `json:"loads"`     // first block
	AllLoads    uint64    `json:"all_loads"` // every block
	GCs         uint64    `json:"gcs"`
	Digest      uint64    `json:"digest"`
	Failures    []string  `json:"failures"`
	BuildMs     []float64 `json:"build_ms"`
	NewMs       []float64 `json:"new_ms"`
	RefMs       []float64 `json:"ref_ms"`
}

// blockStart derives the block's first seed from the workload seed. It is
// a multiple of 16, so the block covers every scenario equally.
func blockStart(seed uint64) uint64 {
	r := prng{seed}
	return r.next() % (1 << 24) * 16
}

// verifyWorker is the child process of the verify-fuzz workload: it
// verifies consecutive seeds through oracle.Verify, block by block from
// the seed's offset, until the window is spent.
func verifyWorker(args []string) int {
	fs := flag.NewFlagSet("verify-worker", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measurement window")
	report := fs.String("report", "", "report path")
	cpuprofile := fs.String("cpuprofile", "", "CPU profile of the timed loop")
	setupOnly := fs.Bool("setup-only", false, "exit when ready to verify")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	first := blockStart(*seed)
	rep := verifyReport{ReadyUnixNs: time.Now().UnixNano()}
	if !*setupOnly {
		if err := verifyLoop(first, *seconds, *cpuprofile, &rep); err != nil {
			fmt.Fprintf(os.Stderr, "verify-worker: %v\n", err)
			return 1
		}
	}
	if err := writeJSON(*report, &rep); err != nil {
		fmt.Fprintf(os.Stderr, "verify-worker: %v\n", err)
		return 1
	}
	return 0
}

func verifyLoop(first uint64, seconds float64, cpuprofile string, rep *verifyReport) error {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
	}
	start := time.Now()
	for n := 0; n == 0 || time.Since(start).Seconds() < seconds; n++ {
		t := time.Now()
		var fps bytes.Buffer
		base := first + uint64(n)*verifyBlock
		for seed := base; seed < base+verifyBlock; seed++ {
			build := func() *ir.Program { return progfuzz.Program(seed) }
			p0 := time.Now()
			r, err := oracle.Verify(build, oracle.Options{HeapBytes: verifyHeap})
			rep.ProgramMs = append(rep.ProgramMs, ms(time.Since(p0)))
			switch {
			case err != nil:
				rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %v", progfuzz.Describe(seed), err))
				continue
			case !r.OK():
				rep.Failures = append(rep.Failures, progfuzz.Describe(seed)+": "+r.Summary())
			case r.Reference.Trap != oracle.TrapNone:
				rep.Failures = append(rep.Failures, progfuzz.Describe(seed)+": trapped: "+r.Reference.Trap)
			}
			for _, cell := range r.Cells {
				rep.AllLoads += cell.Fingerprint.Loads
				if n == 0 {
					rep.Loads += cell.Fingerprint.Loads
					rep.GCs += cell.Fingerprint.GCs
				}
			}
			if n == 0 {
				rep.Cells += len(r.Cells)
			}
			fmt.Fprintf(&fps, "%d %d %s\n", seed, len(r.Cells), r.Reference)
		}
		rep.BlockNs = append(rep.BlockNs, time.Since(t).Nanoseconds())
		if rss, err := takePeakRSS(); err == nil {
			rep.BlockRSSMiB = append(rep.BlockRSSMiB, rss)
		}
		if n == 0 {
			rep.Digest = hashString(fps.String())
		}
	}
	if cpuprofile == "" {
		return nil
	}
	pprof.StopCPUProfile()
	// Spans around the layers' public calls, outside the profile.
	for seed := first; seed < first+verifyBlock; seed++ {
		t := time.Now()
		prog := progfuzz.Program(seed)
		rep.BuildMs = append(rep.BuildMs, ms(time.Since(t)))
		t = time.Now()
		vm.New(prog, vm.Config{HeapBytes: verifyHeap})
		rep.NewMs = append(rep.NewMs, ms(time.Since(t)))
		t = time.Now()
		if _, err := oracle.Run(progfuzz.Program(seed), nil, oracle.Config{HeapBytes: verifyHeap}); err != nil {
			return err
		}
		rep.RefMs = append(rep.RefMs, ms(time.Since(t)))
	}
	return nil
}

// takePeakRSS returns the process's peak RSS in MiB since the last call
// (VmHWM), and resets the peak to the current RSS.
func takePeakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kib / 1024, os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// launchVerify runs one verify worker.
func launchVerify(c config, extra ...string) (child, verifyReport, error) {
	var rep verifyReport
	path := filepath.Join(c.work, "verify.report.json")
	os.Remove(path)
	args := append([]string{"verify-worker", "-seed", strconv.FormatUint(c.seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'f', -1, 64), "-report", path}, extra...)
	cmd := command(filepath.Join(c.bin, "driver"), args...)
	cmd.Dir = c.work
	// One verification at a time on one CPU, like each of go test -fuzz's
	// workers on a busy machine. With a second, idle P the runtime spends
	// 60% more CPU per program on this workload's collections, and twice
	// as much when another process takes the second CPU.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	ch, err := runChild(cmd)
	if err != nil {
		return ch, rep, fmt.Errorf("%w\n%s", err, tail(stderr.Bytes()))
	}
	return ch, rep, readJSON(path, &rep)
}

func verifyPass(c config, traced bool) (*pass, error) {
	p := &pass{E2E: map[string]float64{}, Layers: map[string]float64{}}
	var setups, setupCPU, nops []float64
	for i := 0; i < setupLaunches; i++ {
		ch, rep, err := launchVerify(c, "-setup-only")
		if err != nil {
			return nil, fmt.Errorf("set-up launch: %w", err)
		}
		setups = append(setups, float64(rep.ReadyUnixNs-ch.spawn.UnixNano())/1e9)
		setupCPU = append(setupCPU, ch.cpuS)
		nop, err := launchNop(c)
		if err != nil {
			return nil, err
		}
		nops = append(nops, nop)
	}
	p.SetupNop = median(nops)
	var extra []string
	cpuprofile := filepath.Join(c.work, "verify.cpu.pprof")
	if traced {
		extra = []string{"-cpuprofile", cpuprofile}
	}
	ch, rep, err := launchVerify(c, extra...)
	if err != nil {
		return nil, err
	}
	setups = append(setups, float64(rep.ReadyUnixNs-ch.spawn.UnixNano())/1e9)
	p.Attempted = len(rep.ProgramMs)
	p.Failures = rep.Failures
	total := 0.0
	for _, ns := range rep.BlockNs {
		total += float64(ns) / 1e9
	}
	p.Wall = total / float64(len(rep.ProgramMs)) // seconds per program
	p.Digest = rep.Digest
	p.E2E["ops_per_s"] = float64(len(rep.ProgramMs)) / total
	p.E2E["cpu_ms_per_op"] = ch.cpuS * 1e3 / float64(len(rep.ProgramMs))
	p.E2E["ok_ratio"] = 1 - ratio(float64(len(p.Failures)), float64(p.Attempted))
	// The peak of each block, median over blocks: one process's lifetime
	// peak depends on where a few collections happen to fall.
	p.E2E["peak_rss_mb"] = ch.rssMiB
	if len(rep.BlockRSSMiB) == len(rep.BlockNs) {
		p.E2E["peak_rss_mb"] = median(rep.BlockRSSMiB)
	}
	p.E2E["setup_wall_s"] = median(setups)
	p.E2E["setup_cpu_s"] = median(setupCPU)
	if !traced {
		return p, nil
	}
	l := p.Layers
	if err := foldProfile(cpuprofile, profile.Other, l); err != nil {
		return nil, err
	}
	// Fingerprints carry demand loads and collections only; each cell
	// ran its program twice (warm-up and measured run).
	l["memsim.accesses"] = float64(rep.Loads)
	l["heap.gcs"] = float64(rep.GCs)
	l["memsim.ns_per_access"] = 1e9 * ratio(l["memsim.cpu_s"], 2*float64(rep.AllLoads))
	l["oracle.cells"] = float64(rep.Cells) / verifyBlock
	l["oracle.verify_ms_p50"] = median(rep.ProgramMs)
	l["oracle.verify_ms_p90"] = percentile(rep.ProgramMs, 90)
	l["workloads.build_ms"] = median(rep.BuildMs)
	l["vm.new_ms"] = median(rep.NewMs)
	l["oracle.ref_ms"] = median(rep.RefMs)
	return p, nil
}
