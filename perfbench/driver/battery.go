package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"time"

	"strider/internal/arch"
	"strider/internal/core/jit"
	"strider/internal/vm"
	"strider/internal/workloads"
)

// batteryArgs is what users run: every default artifact at full size on
// a 2-worker grid.
var batteryArgs = "-size full -parallel 2"

// setupLaunches is how many extra start-ups set-up time is the median of.
// A start-up takes a few ms, and its time follows the host CPU's speed
// from one moment to the next, so the median is over many.
const setupLaunches = 200

// batteryReport mirrors the report the experiments test binary writes
// (perfbench/overlay/experiments_test.go.in).
type batteryReport struct {
	StartUnixNs int64         `json:"start_unix_ns"`
	WallNs      int64         `json:"wall_ns"`
	Code        int           `json:"code"`
	Executions  uint64        `json:"executions"`
	CacheHits   uint64        `json:"cache_hits"`
	Workers     int           `json:"workers"`
	Cells       []vm.RunStats `json:"cells"`
}

// progressLine matches one per-cell progress line of the experiments
// command: "[ 7/36] db/full/Pentium4/BASELINE   1.234s".
var progressLine = regexp.MustCompile(`(?m)^\[\s*\d+/\d+\] (\S+)\s+(\S+)( \(shared\))?`)

// launchBattery runs the experiments command's body once in its test
// binary and returns the child, its report, stdout and stderr.
func launchBattery(c config, args, tag, cpuprofile string, cells bool) (child, batteryReport, []byte, []byte, error) {
	var rep batteryReport
	stdoutPath := filepath.Join(c.work, tag+".stdout")
	reportPath := filepath.Join(c.work, tag+".report.json")
	os.Remove(reportPath)
	testArgs := []string{"-test.run=^TestPerfbenchBattery$", "-test.count=1"}
	if cpuprofile != "" {
		testArgs = append(testArgs, "-test.cpuprofile="+cpuprofile)
	}
	cmd := command(filepath.Join(c.bin, "experiments.test"), testArgs...)
	cmd.Dir = c.work
	cmd.Env = append(os.Environ(),
		"PERFBENCH_ARGS="+args, "PERFBENCH_STDOUT="+stdoutPath, "PERFBENCH_REPORT="+reportPath)
	if cells {
		cmd.Env = append(cmd.Env, "PERFBENCH_CELLS=1")
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	ch, err := runChild(cmd)
	if err != nil {
		return ch, rep, nil, stderr.Bytes(), fmt.Errorf("%w\n%s", err, tail(stderr.Bytes()))
	}
	if err := readJSON(reportPath, &rep); err != nil {
		return ch, rep, nil, stderr.Bytes(), err
	}
	out, err := os.ReadFile(stdoutPath)
	return ch, rep, out, stderr.Bytes(), err
}

func tail(b []byte) []byte {
	if len(b) > 2000 {
		return b[len(b)-2000:]
	}
	return b
}

func batteryPass(c config, traced bool) (*pass, error) {
	want, err := os.ReadFile(filepath.Join(c.root, "experiments_output.txt"))
	if err != nil {
		return nil, fmt.Errorf("battery reference output: %w", err)
	}
	p := &pass{E2E: map[string]float64{}, Layers: map[string]float64{}}

	// Set-up: launches that print only the static Table 2. Their CPU time is
	// the set-up's cost; the time from process start to the command body
	// starting is its wall time.
	var setups, setupCPU, nops []float64
	for i := 0; i < setupLaunches; i++ {
		ch, rep, _, _, err := launchBattery(c, "-only table2 -progress=false", "setup", "", false)
		if err != nil {
			return nil, fmt.Errorf("set-up launch: %w", err)
		}
		setups = append(setups, float64(rep.StartUnixNs-ch.spawn.UnixNano())/1e9)
		setupCPU = append(setupCPU, ch.cpuS)
		nop, err := launchNop(c)
		if err != nil {
			return nil, err
		}
		nops = append(nops, nop)
	}
	p.SetupNop = median(nops)

	var walls, cpu, rss, cellMs, tails []float64
	var sum simSum
	var rep batteryReport
	var stderr []byte
	cpuprofile := ""
	if traced {
		cpuprofile = filepath.Join(c.work, "battery.cpu.pprof")
	}
	// Batteries run back to back while the next one is expected to end
	// within the window; at least one runs.
	start := time.Now()
	for n := 0; n == 0 || time.Since(start).Seconds()+walls[n-1] <= c.seconds; n++ {
		var ch child
		var out []byte
		ch, rep, out, stderr, err = launchBattery(c, batteryArgs, "battery", cpuprofile, true)
		if err != nil {
			return nil, err
		}
		p.Attempted++
		setups = append(setups, float64(rep.StartUnixNs-ch.spawn.UnixNano())/1e9)
		switch {
		case rep.Code != 0:
			p.fail("battery exited %d", rep.Code)
		case !bytes.Equal(out, want):
			p.fail("battery stdout differs from experiments_output.txt (%d vs %d bytes)", len(out), len(want))
		}
		walls = append(walls, float64(rep.WallNs)/1e9)
		rss = append(rss, ch.rssMiB)
		cpu = append(cpu, ch.cpuS*1e3)
		var cells []float64
		for _, m := range progressLine.FindAllSubmatch(stderr, -1) {
			if len(m[3]) > 0 {
				continue // served from the result cache
			}
			d, err := time.ParseDuration(string(m[2]))
			if err != nil {
				return nil, fmt.Errorf("progress line %q: %w", m[0], err)
			}
			cells = append(cells, float64(d)/1e6)
		}
		if uint64(len(cells)) != rep.Executions {
			p.fail("%d executed cells in the progress log, %d in the engine counters", len(cells), rep.Executions)
		}
		cellMs = append(cellMs, cells...)
		tails = append(tails, slowestMean(cells, 10))
		var s simSum
		for _, st := range rep.Cells {
			s.add(st, 2) // one warm-up plus the measured run
		}
		if n == 0 {
			sum = s
		} else if s.digest() != sum.digest() {
			p.fail("battery %d simulated different counters from battery 0", n)
		}
		if cpuprofile != "" {
			break // one profiled battery is the ledger
		}
	}
	p.Wall = median(walls)
	p.Digest = sum.digest()
	p.E2E["ops_per_s"] = 1 / p.Wall
	p.E2E["cpu_ms_per_op"] = median(cpu)
	p.E2E["ok_ratio"] = 1 - ratio(float64(len(p.Failures)), float64(p.Attempted))
	p.E2E["peak_rss_mb"] = median(rss)
	p.E2E["setup_wall_s"] = median(setups)
	p.E2E["setup_cpu_s"] = median(setupCPU)
	if !traced {
		return p, nil
	}

	l := p.Layers
	if err := foldProfile(cpuprofile, "harness", l); err != nil {
		return nil, err
	}
	sum.simLayers(l)
	sum.hostPerSim(l)
	l["harness.cell_ms_p50"] = median(cellMs)
	l["harness.cell_ms_p90"] = percentile(cellMs, 90)
	l["harness.slowest10_ms"] = median(tails)
	total := 0.0
	for _, ms := range cellMs {
		total += ms / 1e3
	}
	l["harness.idle_share"] = 1 - ratio(total, float64(rep.Workers)*p.Wall)
	l["harness.executions"] = float64(rep.Executions)
	l["harness.cache_hits"] = float64(rep.CacheHits)
	buildMs, newMs := buildSpans()
	l["workloads.build_ms"], l["vm.new_ms"] = median(buildMs), median(newMs)
	return p, nil
}

// buildSpans times Workload.Build and vm.New for every workload at full
// size, as the battery's cells construct them.
func buildSpans() (buildMs, newMs []float64) {
	for _, w := range workloads.All() {
		t := time.Now()
		prog := w.Build(workloads.SizeFull)
		buildMs = append(buildMs, ms(time.Since(t)))
		t = time.Now()
		vm.New(prog, vm.Config{Machine: arch.Pentium4(), Mode: jit.InterIntra, HeapBytes: w.HeapBytes})
		newMs = append(newMs, ms(time.Since(t)))
	}
	return buildMs, newMs
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
