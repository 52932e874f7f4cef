// Command driver is the repository benchmark's driver. run.py builds it and
// the programs under test, then runs
//
//	driver -workload battery|verify-fuzz|service-mix -seed N -seconds S -trace 0|1 \
//	       -root <checkout> -bin <dir of built programs> -work <scratch dir>
//
// It prints one JSON object as the last line of stdout: the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1. The work
// itself always runs in a child process (the experiments test binary, a
// verify worker, or striderd), so peak RSS and set-up time belong to the
// process doing the work. See perfbench/README.md for the metric table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// config is the driver's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // checkout root: experiments_output.txt lives here
	bin      string // built programs: experiments.test, striderd, driver
	work     string // scratch directory for reports and profiles
}

// pass is one measurement of a workload. E2E holds the end-to-end metrics
// and the raw figures calibrated turns into them: ops_per_s (wall),
// cpu_ms_per_op, setup_cpu_s and setup_wall_s. Layers, filled by traced
// passes only, holds the per-layer metrics.
type pass struct {
	Attempted int
	Failures  []string
	Wall      float64 // seconds of measured work per battery, program or request, for trace overhead
	Digest    uint64  // hash of the simulated counters
	SetupNop  float64 // median CPU seconds of the nop launches next to the set-up launches; 0 if none
	E2E       map[string]float64
	Layers    map[string]float64
}

func (p *pass) fail(format string, args ...any) {
	p.Failures = append(p.Failures, fmt.Sprintf(format, args...))
}

// e2eUnits is the end-to-end metric set of BENCHMARK.json.
var e2eUnits = []struct{ name, unit string }{
	{"ref_cpu_ms_per_op", "ms"},
	{"ok_ratio", "ratio"},
	{"setup_s", "s"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "verify-worker" {
		os.Exit(verifyWorker(os.Args[2:]))
	}
	var c config
	fs := flag.NewFlagSet("driver", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "battery, verify-fuzz or service-mix")
	fs.Uint64Var(&c.seed, "seed", 1, "workload seed")
	fs.Float64Var(&c.seconds, "seconds", 10, "measurement window")
	trace := fs.Int("trace", 0, "1 for the traced run (per-layer metrics)")
	fs.StringVar(&c.root, "root", ".", "checkout root")
	fs.StringVar(&c.bin, "bin", "", "directory of the built programs")
	fs.StringVar(&c.work, "work", "", "scratch directory")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	c.trace = *trace == 1
	run, ok := map[string]func(config, bool) (*pass, error){
		"battery":     batteryPass,
		"verify-fuzz": verifyPass,
		"service-mix": servicePass,
	}[c.workload]
	if !ok || c.bin == "" || c.work == "" || c.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "driver: need -workload battery|verify-fuzz|service-mix, -bin, -work and -seconds > 0\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(c.work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "driver: %v\n", err)
		os.Exit(1)
	}
	res, err := measure(c, run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "driver: %s: %v\n", c.workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "driver: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// measure runs the untraced pass, and with -trace 1 a traced pass after
// it, and assembles the result line. Both passes must simulate exactly
// the same thing: their digests are compared.
func measure(c config, run func(config, bool) (*pass, error)) (*result, error) {
	plain, err := calibrated(c, run, false)
	if err != nil {
		return nil, err
	}
	passes := []*pass{plain}
	fmt.Printf("sim_digest %s seed=%d %016x\n", c.workload, c.seed, plain.Digest)
	res := &result{Metrics: map[string]metric{}}
	if !c.trace {
		for _, m := range e2eUnits {
			res.Metrics[m.name] = metric{plain.E2E[m.name], m.unit}
		}
	} else {
		traced, err := calibrated(c, run, true)
		if err != nil {
			return nil, err
		}
		passes = append(passes, traced)
		if traced.Digest != plain.Digest {
			traced.fail("sim_digest differs between the untraced (%016x) and traced (%016x) passes",
				plain.Digest, traced.Digest)
		}
		traced.Layers["trace_overhead_ratio"] = traced.Wall/plain.Wall - 1
		traced.Layers["process.peak_rss_mb"] = traced.E2E["peak_rss_mb"]
		// 52 bits of the digest, so the value survives a float64 exactly.
		traced.Layers["sim_digest"] = float64(traced.Digest >> 12)
		for _, m := range layerUnits {
			res.Metrics[m.name] = metric{traced.Layers[m.name], m.unit}
		}
	}
	res.Correct = true
	for _, p := range passes {
		res.Attempted += p.Attempted
		res.Failed += len(p.Failures)
		for _, f := range p.Failures {
			fmt.Fprintf(os.Stderr, "driver: %s: FAILED: %s\n", c.workload, f)
			res.Correct = false
		}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return res, nil
}

// calibrated runs one pass while a probe samples the reference kernel
// (calib.go). The end-to-end time metrics are CPU seconds of the process
// under test, scaled to the reference CPU speed by the kernel's median CPU
// time per sample; wall times follow how much of the shared host the run
// was given, so they are kept, raw, with the layers.
func calibrated(c config, run func(config, bool) (*pass, error), traced bool) (*pass, error) {
	pr := startProbe()
	p, err := run(c, traced)
	walls, cpus := pr.finish()
	if err != nil {
		return nil, err
	}
	speed := refKernelCPUS / median(cpus)
	p.E2E["ref_cpu_ms_per_op"] = p.E2E["cpu_ms_per_op"] * speed
	// A process start is mostly the operating system's work (exec, page
	// faults), which the nop program's start tracks better than the
	// reference kernel does.
	if p.SetupNop > 0 {
		p.E2E["setup_s"] = p.E2E["setup_cpu_s"] * refNopCPUS / p.SetupNop
	} else {
		p.E2E["setup_s"] = p.E2E["setup_cpu_s"] * speed
	}
	l := p.Layers
	l["host.nop_cpu_ms"] = p.SetupNop * 1e3
	l["host.ops_per_s"] = p.E2E["ops_per_s"]
	l["host.cpu_ms_per_op"] = p.E2E["cpu_ms_per_op"]
	l["host.setup_cpu_s"] = p.E2E["setup_cpu_s"]
	l["host.setup_wall_s"] = p.E2E["setup_wall_s"]
	l["host.kernel_ms"] = median(walls) * 1e3
	l["host.kernel_cpu_ms"] = median(cpus) * 1e3
	fmt.Fprintf(os.Stderr, "driver: %s: %.4g ops/s, %.4g CPU ms/op, set-up %.4g CPU s and %.4g s; kernel %.3f ms, %.3f CPU ms over %d samples\n",
		c.workload, p.E2E["ops_per_s"], p.E2E["cpu_ms_per_op"], p.E2E["setup_cpu_s"], p.E2E["setup_wall_s"],
		l["host.kernel_ms"], l["host.kernel_cpu_ms"], len(cpus))
	return p, nil
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or 0 for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// slowestMean returns the mean of the k largest values of xs (all of
// them when there are fewer).
func slowestMean(xs []float64, k int) float64 {
	s := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	s = s[:min(k, len(s))]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return ratio(sum, float64(len(s)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return nil
}
