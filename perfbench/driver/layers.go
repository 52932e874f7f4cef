package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"syscall"
	"time"

	"strider/internal/memsim"
	"strider/internal/vm"
	"strider/perfbench/profile"
)

// layerUnits is the per-layer metric set of BENCHMARK.json. A traced run
// reports every one of them; a layer that does no work on the workload
// reads 0.
var layerUnits = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(name, unit string) { out = append(out, struct{ name, unit string }{name, unit}) }
	for _, l := range profile.Layers {
		add(cpuName(l), "s")
		add(l+".cpu_share", "ratio")
	}
	for _, m := range []struct{ name, unit string }{
		{"profile.cpu_s", "s"},
		{"memsim.ns_per_access", "ns"},
		{"interp.ns_per_instr", "ns"},
		{"vm.new_ms", "ms"},
		{"workloads.build_ms", "ms"},
		{"oracle.ref_ms", "ms"},
		{"oracle.cells", "count"},
		{"oracle.verify_ms_p50", "ms"},
		{"oracle.verify_ms_p90", "ms"},
		{"harness.cell_ms_p50", "ms"},
		{"harness.cell_ms_p90", "ms"},
		{"harness.slowest10_ms", "ms"},
		{"harness.idle_share", "ratio"},
		{"harness.executions", "count"},
		{"harness.cache_hits", "count"},
		{"server.queue_ms_p50", "ms"},
		{"server.queue_ms_p99", "ms"},
		{"server.run_ms_rerun_p50", "ms"},
		{"server.run_ms_fresh_p50", "ms"},
		{"server.cache_hit_ratio", "ratio"},
		{"server.pool_hit_ratio", "ratio"},
		{"server.shard_util", "ratio"},
		{"svc.p50_ms", "ms"},
		{"svc.p99_ms", "ms"},
		{"svc.max_rps", "1/s"},
		{"svc.hit_p50_ms", "ms"},
		{"svc.rerun_p50_ms", "ms"},
		{"svc.fresh_p50_ms", "ms"},
		{"svc.fresh_p99_ms", "ms"},
		{"loadgen.late_ms_p99", "ms"},
		{"memsim.accesses", "count"},
		{"memsim.l1_load_miss_ratio", "ratio"},
		{"memsim.l2_load_miss_ratio", "ratio"},
		{"memsim.dtlb_load_miss_ratio", "ratio"},
		{"memsim.sw_prefetch_useless_ratio", "ratio"},
		{"memsim.sw_prefetch_dropped_ratio", "ratio"},
		{"memsim.hw_hit_ratio", "ratio"},
		{"interp.instructions", "count"},
		{"heap.gcs", "count"},
		{"heap.gc_cycle_share", "ratio"},
		{"jit.compiled_methods", "count"},
		{"jit.inspect_steps", "count"},
		{"host.ops_per_s", "1/s"},
		{"host.cpu_ms_per_op", "ms"},
		{"host.setup_cpu_s", "s"},
		{"host.setup_wall_s", "s"},
		{"host.kernel_ms", "ms"},
		{"host.kernel_cpu_ms", "ms"},
		{"host.nop_cpu_ms", "ms"},
		{"process.peak_rss_mb", "MiB"},
		{"trace_overhead_ratio", "ratio"},
		{"sim_digest", "hash"},
	} {
		add(m.name, m.unit)
	}
	return out
}()

// cpuName names a layer's CPU-seconds metric: "memsim.cpu_s",
// "vm.setup_cpu_s", "runtime.gc_cpu_s".
func cpuName(layer string) string {
	switch layer {
	case profile.VMSetup:
		return "vm.setup_cpu_s"
	case profile.RuntimeGC:
		return "runtime.gc_cpu_s"
	}
	return layer + ".cpu_s"
}

// simSum sums the simulated counters of RunStats. Runs counts the
// simulated program runs behind them, warm-ups included, so host time can
// be divided by simulated work.
type simSum struct {
	Stats           int
	Runs            uint64
	Cycles          uint64
	Instructions    uint64
	GCs             uint64
	GCCycles        uint64
	CompiledMethods uint64
	InspectSteps    uint64
	Checksums       uint64
	Mem             memsim.Counters
	HW              memsim.HWStats
}

// add folds in one RunStats whose cell ran the measured program runs
// times (warm-ups plus the measured run).
func (s *simSum) add(st vm.RunStats, runs uint64) {
	s.Stats++
	s.Runs += runs
	s.Cycles += st.Cycles
	s.Instructions += st.Instructions
	s.GCs += st.GCs
	s.GCCycles += st.GCCycles
	s.CompiledMethods += uint64(st.CompiledMethods)
	s.InspectSteps += uint64(st.InspectSteps)
	s.Checksums += st.Checksum
	m, c := &s.Mem, st.Mem
	m.Loads += c.Loads
	m.Stores += c.Stores
	m.L1LoadMisses += c.L1LoadMisses
	m.L2LoadMisses += c.L2LoadMisses
	m.DTLBLoadMisses += c.DTLBLoadMisses
	m.L1StoreMisses += c.L1StoreMisses
	m.L2StoreMisses += c.L2StoreMisses
	m.DTLBStoreMisses += c.DTLBStoreMisses
	m.HWPrefetches += c.HWPrefetches
	m.PrefetchesIssued += c.PrefetchesIssued
	m.PrefetchesGuarded += c.PrefetchesGuarded
	m.PrefetchesDropped += c.PrefetchesDropped
	m.PrefetchesUseless += c.PrefetchesUseless
	m.LoadStallCycles += c.LoadStallCycles
	m.StoreStallCycles += c.StoreStallCycles
	s.HW.Trains += st.HW.Trains
	s.HW.Allocs += st.HW.Allocs
	s.HW.Hits += st.HW.Hits
	s.HW.Issued += st.HW.Issued
	s.HW.Suppressed += st.HW.Suppressed
}

// accesses counts the memory-model operations of the measured runs:
// demand loads, stores and software prefetches.
func (s *simSum) accesses() uint64 {
	return s.Mem.Loads + s.Mem.Stores + s.Mem.PrefetchesIssued
}

// digest hashes every simulated counter (the run count excluded: it is
// host-side bookkeeping).
func (s simSum) digest() uint64 {
	s.Runs = 0
	return hashString(fmt.Sprintf("%+v", s))
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// simLayers writes the simulated-counter metrics. They pin what is
// simulated; a host-speed change must leave them alone.
func (s *simSum) simLayers(l map[string]float64) {
	m := s.Mem
	l["memsim.accesses"] = float64(s.accesses())
	l["memsim.l1_load_miss_ratio"] = ratio(float64(m.L1LoadMisses), float64(m.Loads))
	l["memsim.l2_load_miss_ratio"] = ratio(float64(m.L2LoadMisses), float64(m.L1LoadMisses))
	l["memsim.dtlb_load_miss_ratio"] = ratio(float64(m.DTLBLoadMisses), float64(m.Loads))
	l["memsim.sw_prefetch_useless_ratio"] = ratio(float64(m.PrefetchesUseless), float64(m.PrefetchesIssued))
	l["memsim.sw_prefetch_dropped_ratio"] = ratio(float64(m.PrefetchesDropped), float64(m.PrefetchesIssued))
	l["memsim.hw_hit_ratio"] = ratio(float64(s.HW.Hits), float64(s.HW.Trains))
	l["interp.instructions"] = float64(s.Instructions)
	l["heap.gcs"] = float64(s.GCs)
	l["heap.gc_cycle_share"] = ratio(float64(s.GCCycles), float64(s.Cycles))
	l["jit.compiled_methods"] = float64(s.CompiledMethods)
	l["jit.inspect_steps"] = float64(s.InspectSteps)
}

// hostPerSim writes the efficiency yardsticks: host nanoseconds of a
// layer per simulated event. The measured runs' counts are scaled by
// runs/stats, counting each warm-up as repeating its measured run.
func (s *simSum) hostPerSim(l map[string]float64) {
	scale := ratio(float64(s.Runs), float64(s.Stats))
	l["memsim.ns_per_access"] = 1e9 * ratio(l["memsim.cpu_s"], scale*float64(s.accesses()))
	l["interp.ns_per_instr"] = 1e9 * ratio(l["interp.cpu_s"], scale*float64(s.Instructions))
}

// foldProfile reads a CPU profile and writes each layer's CPU seconds and
// share into l.
func foldProfile(path, mainLayer string, l map[string]float64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	p, err := profile.Parse(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	cpu, err := profile.Fold(p, mainLayer)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	total := 0.0
	for _, s := range cpu {
		total += s
	}
	l["profile.cpu_s"] = total
	for _, layer := range profile.Layers {
		l[cpuName(layer)] = cpu[layer]
		l[layer+".cpu_share"] = ratio(cpu[layer], total)
	}
	return nil
}

// child is one finished child process.
type child struct {
	cpuS   float64 // user plus system CPU seconds
	rssMiB float64
	spawn  time.Time
}

// command is exec.Command for a child that the kernel kills if the
// driver dies first, so no child outlives a killed run.
func command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// runChild runs cmd to completion and reports its CPU time and peak RSS.
func runChild(cmd *exec.Cmd) (child, error) {
	c := child{spawn: time.Now()}
	err := cmd.Run()
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			c.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
		c.cpuS = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	}
	if err != nil {
		return c, fmt.Errorf("%s: %w", cmd.Path, err)
	}
	return c, nil
}
