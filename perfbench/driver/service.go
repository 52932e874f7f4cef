package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"strider/internal/harness"
	"strider/internal/oracle"
	"strider/internal/progfuzz"
	"strider/internal/server"
	"strider/internal/vm"
)

// The service mix. No recorded striderd traffic exists to derive it from,
// so the shares and the hot set are assumptions, with their reasons in
// README.md. The rate and the latency limit were fixed from measurements
// of the seed commit (see README.md); they are part of the benchmark, not
// tuned per run.
//
// Every 20 consecutive requests hold exactly the mix's shares, in a seeded
// order, and each class goes through the hot set in seeded rounds, so
// every seed offers the same work. A rerun takes about 40 times as long as
// a hit (14 ms against 0.35 ms), so drawing classes at random moved the
// CPU per request by several percent from seed to seed.
var classQuota = [...]int{
	classHit:   17, // 85% cached hot cells: the server, HTTP and JSON path
	classRerun: 1,  // 5% hot cells with ?nocache=1: executed again
	classFresh: 2,  // 10% fresh fuzz:<seed> jobs: build, new VM, JIT, run
}

const (
	fixedRate     = 650.0         // requests per second offered in the fixed-rate phase, about half the capacity
	satRate       = 4 * fixedRate // offered in the saturation probe: about twice what is served
	latencyLimit  = 100 * time.Millisecond
	probeSeconds  = 2.5
	searchSeconds = 15.0 // the traced pass's max-rate search
	windows       = 5    // the fixed phase's latencies are medians over windows
	connections   = 2
	serverStarts  = 9   // set-up time is the median over this many starts, before the measured one
	poolFill      = 288 // fresh jobs set-up submits: more than the 256 keys striderd's VM pool holds
)

// hotJobs is the hot set: small cells that take 5–20 ms to execute.
var hotJobs = func() []server.Job {
	var jobs []server.Job
	for _, w := range []string{"jess", "javac", "euler", "mtrt"} {
		for _, m := range []string{"Pentium4", "AthlonMP"} {
			jobs = append(jobs, server.Job{Workload: w, Machine: m})
		}
	}
	return jobs
}()

const (
	classHit = iota
	classRerun
	classFresh
)

var classNames = []string{"hit", "rerun", "fresh"}

// fuzzHeap is the simulated heap the server gives fuzz jobs.
var fuzzHeap = server.Job{Workload: server.FuzzPrefix + "0"}.Spec().HeapBytes

// request is one scheduled submission.
type request struct {
	due   time.Duration // offset from the phase start
	class int
	path  string
	body  []byte
	want  string // expected checksum
	seed  uint64 // the fuzz seed of a fresh job
}

// outcome is what the generator saw for one request.
type outcome struct {
	class   int
	sent    bool
	latency time.Duration // from due time to the full response
	late    time.Duration // from due time to the send
	failure string        // non-empty: refused, failed or wrong
	refused bool          // 429/503 or a transport error
	status  int
	body    []byte // until decoded into resp
	resp    server.Response
}

// prng is splitmix64.
type prng struct{ s uint64 }

func (r *prng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *prng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// mix generates seeded schedules. Fresh jobs draw consecutive fuzz seeds
// from one counter, so no fresh job repeats within a run.
type mix struct {
	rng       prng
	nextFresh uint64
	hotWant   []string
	refMs     []float64
	classes   []int   // the rest of the current block of 20 requests
	hotRound  [][]int // per class, the rest of the current round through the hot set
}

// shuffle puts xs in a seeded order.
func (m *mix) shuffle(xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := int(m.rng.next() % uint64(i+1))
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// nextClass returns the class of the next request.
func (m *mix) nextClass() int {
	if len(m.classes) == 0 {
		for class, n := range classQuota {
			for i := 0; i < n; i++ {
				m.classes = append(m.classes, class)
			}
		}
		m.shuffle(m.classes)
	}
	class := m.classes[0]
	m.classes = m.classes[1:]
	return class
}

// nextHot returns the index of the hot cell the next request of class
// asks for.
func (m *mix) nextHot(class int) int {
	if len(m.hotRound[class]) == 0 {
		for i := range hotJobs {
			m.hotRound[class] = append(m.hotRound[class], i)
		}
		m.shuffle(m.hotRound[class])
	}
	i := m.hotRound[class][0]
	m.hotRound[class] = m.hotRound[class][1:]
	return i
}

func newMix(seed uint64) (*mix, error) {
	// Fresh seeds start above every verify-fuzz block.
	m := &mix{rng: prng{seed}, nextFresh: blockStart(seed^0x5EED) + 1<<32, hotRound: make([][]int, len(classQuota))}
	for _, jb := range hotJobs {
		st, err := harness.Run(jb.Spec())
		if err != nil {
			return nil, fmt.Errorf("serial run of %s: %w", jb.Key(), err)
		}
		m.hotWant = append(m.hotWant, fmt.Sprintf("%016x", st.Checksum))
	}
	return m, nil
}

// warmUp returns what set-up submits to each server it starts: n fresh
// jobs, then the hot set. Their checksums are computed here, before any
// server runs, so set-up time is the server's alone.
func (m *mix) warmUp(n int) ([]request, error) {
	var reqs []request
	for i := 0; i < n; i++ {
		jb, _, want, err := m.fresh()
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, request{path: "/run", class: classFresh, want: want})
		if reqs[i].body, err = json.Marshal(jb); err != nil {
			return nil, err
		}
	}
	for i, jb := range hotJobs {
		body, err := json.Marshal(jb)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, request{path: "/run", class: classHit, body: body, want: m.hotWant[i]})
	}
	return reqs, nil
}

// schedule lays out a Poisson arrival stream at rate for the given
// duration, with expected checksums computed before it is driven: hot
// cells from the serial harness, fresh jobs from the reference
// interpreter.
func (m *mix) schedule(rate, seconds float64) ([]request, error) {
	var reqs []request
	t := 0.0
	for {
		t += -math.Log(1-m.rng.float()) / rate
		if t >= seconds {
			return reqs, nil
		}
		r := request{due: time.Duration(t * 1e9), path: "/run", class: m.nextClass()}
		if r.class == classRerun {
			r.path = "/run?nocache=1"
		}
		var jb server.Job
		if r.class == classFresh {
			var err error
			jb, r.seed, r.want, err = m.fresh()
			if err != nil {
				return nil, err
			}
		} else {
			i := m.nextHot(r.class)
			jb, r.want = hotJobs[i], m.hotWant[i]
		}
		body, err := json.Marshal(jb)
		if err != nil {
			return nil, err
		}
		r.body = body
		reqs = append(reqs, r)
	}
}

// fresh returns the next fresh job, its seed and its checksum from the
// reference interpreter, on the server's default heap for fuzz jobs.
func (m *mix) fresh() (server.Job, uint64, string, error) {
	seed := m.nextFresh
	m.nextFresh++
	jb := server.Job{Workload: fmt.Sprintf("%s%d", server.FuzzPrefix, seed)}
	t := time.Now()
	fp, err := oracle.Run(progfuzz.Program(seed), nil, oracle.Config{HeapBytes: fuzzHeap})
	if err != nil {
		return jb, seed, "", err
	}
	if fp.Trap != oracle.TrapNone {
		return jb, seed, "", fmt.Errorf("fuzz seed %d traps in the reference interpreter: %s", seed, fp.Trap)
	}
	m.refMs = append(m.refMs, ms(time.Since(t)))
	return jb, seed, fmt.Sprintf("%016x", fp.Checksum), nil
}

// drive sends reqs open-loop over the given connections: each request is
// sent at its due time, or as soon as a connection frees up if all are
// busy, and its latency runs from the due time.
//
// With a non-zero deadline, requests not yet sent when it passes are
// dropped from the result: the saturation probe uses this to keep both
// connections busy for a fixed time.
func drive(url string, reqs []request, deadline time.Duration) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{
				Timeout:   30 * time.Second,
				Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			}
			defer client.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || (deadline > 0 && time.Since(start) > deadline) {
					return
				}
				r := reqs[i]
				due := start.Add(r.due)
				sleepUntil(due)
				o := outcome{class: r.class, sent: true, late: time.Since(due)}
				resp, err := client.Post(url+r.path, "application/json", bytes.NewReader(r.body))
				if err == nil {
					o.status = resp.StatusCode
					o.body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				if err != nil {
					o.failure, o.refused = err.Error(), true
				}
				o.latency = time.Since(due)
				out[i] = o
			}
		}()
	}
	wg.Wait()
	// Responses are decoded and checked after the phase, so the client's
	// JSON work does not compete with the server for the CPUs meanwhile.
	sent := out[:0]
	for i, o := range out {
		if o.sent {
			o.judge(reqs[i].want)
			sent = append(sent, o)
		}
	}
	return sent
}

// judge decodes a received response and records what was wrong with it:
// a refusal, another status, a trap, or a checksum other than want.
func (o *outcome) judge(want string) {
	if o.failure != "" {
		return
	}
	err := json.Unmarshal(o.body, &o.resp)
	o.body = nil
	switch {
	case o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable:
		o.failure, o.refused = http.StatusText(o.status), true
	case o.status != http.StatusOK:
		o.failure = http.StatusText(o.status)
	case err != nil:
		o.failure = "decode: " + err.Error()
	case o.resp.Err != "" || o.resp.Trap != "":
		o.failure = "trap: " + o.resp.Err
	case o.resp.Checksum != want:
		o.failure = fmt.Sprintf("%s: checksum %s, want %s", o.resp.Key, o.resp.Checksum, want)
	}
}

// sleepUntil waits for t with nanosleep: the runtime's timers wake up to a
// millisecond late when the process is idle, which would read as latency.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

func latMs(outs []outcome, keep func(outcome) bool, f func(outcome) time.Duration) []float64 {
	var xs []float64
	for _, o := range outs {
		if keep == nil || keep(o) {
			xs = append(xs, ms(f(o)))
		}
	}
	return xs
}

func latency(o outcome) time.Duration { return o.latency }

// meetsLimit is the search's pass test: nothing refused or failed, the
// p99 latency within the limit, and no growing backlog (the generator is
// not falling behind by the end of the probe).
func meetsLimit(outs []outcome) bool {
	for _, o := range outs {
		if o.failure != "" {
			return false
		}
	}
	limit := ms(latencyLimit)
	last := outs[len(outs)*3/4:]
	return percentile(latMs(outs, nil, latency), 99) <= limit &&
		median(latMs(last, nil, func(o outcome) time.Duration { return o.late })) <= limit/4
}

// striderd is one running server.
type striderd struct {
	cmd   *exec.Cmd
	url   string
	pprof string
	done  chan error
}

// startServer starts striderd, waits for /healthz, and submits the warm
// requests to it. It returns the time from spawn to the end of warm-up.
func startServer(c config, traced bool, warm []request) (*striderd, time.Duration, error) {
	spawn := time.Now()
	cmd := command(filepath.Join(c.bin, "striderd"), "-addr", "127.0.0.1:0")
	cmd.Dir = c.work
	cmd.Env = os.Environ()
	if traced {
		cmd.Env = append(cmd.Env, "STRIDERD_PPROF_ADDR=127.0.0.1:0")
	}
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &striderd{cmd: cmd, done: make(chan error, 1)}
	sc := bufio.NewScanner(stdout)
	for s.url == "" && sc.Scan() {
		line := sc.Text()
		if a, ok := strings.CutPrefix(line, "pprof listening on "); ok {
			s.pprof = "http://" + a
		}
		if a, ok := strings.CutPrefix(line, "striderd listening on "); ok {
			s.url = "http://" + a
		}
	}
	go func() {
		io.Copy(io.Discard, stdout)
		s.done <- cmd.Wait()
	}()
	if s.url == "" || (traced && s.pprof == "") {
		s.stop()
		return nil, 0, fmt.Errorf("striderd did not report its listen address")
	}
	for {
		resp, err := http.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(spawn) > 30*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("striderd /healthz not ready after 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Steady state: a long-running server under this mix has its VM pool
	// full of one-shot fresh cells, so warm starts with more fresh jobs
	// than the pool holds, then warms the hot set into the result cache.
	// The fresh jobs go over both connections, as measured traffic does:
	// sent one at a time, they left a P idle, and the CPU the runtime
	// spent on it depended on whether another process held the second
	// vCPU.
	fresh, hot := warm[:len(warm)-len(hotJobs)], warm[len(warm)-len(hotJobs):]
	errs := make(chan error, connections)
	for k := 0; k < connections; k++ {
		go func() {
			var err error
			for i := k; i < len(fresh) && err == nil; i += connections {
				err = s.submit(fresh[i])
			}
			errs <- err
		}()
	}
	err = nil
	for k := 0; k < connections; k++ {
		if e := <-errs; err == nil {
			err = e
		}
	}
	for _, r := range hot {
		if err == nil {
			err = s.submit(r)
		}
	}
	if err != nil {
		s.stop()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return s, time.Since(spawn), nil
}

// submit sends one request and checks its checksum.
func (s *striderd) submit(r request) error {
	resp, err := http.Post(s.url+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", r.body, resp.Status)
	}
	var out server.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return fmt.Errorf("%s: %w", r.body, err)
	}
	if out.Checksum != r.want {
		return fmt.Errorf("%s: checksum %s, want %s", out.Key, out.Checksum, r.want)
	}
	return nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// stop drains the server with SIGTERM and waits for it to exit, and
// returns its peak RSS in MiB.
func (s *striderd) stop() float64 {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(60 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// procCPU returns a process's user plus system CPU seconds so far, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name, field 2, is parenthesised and may hold spaces.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var utime, stime float64
	if _, err := fmt.Sscan(f[11], &utime); err != nil {
		return 0, err
	}
	if _, err := fmt.Sscan(f[12], &stime); err != nil {
		return 0, err
	}
	return (utime + stime) / 100, nil
}

// busy returns the shards' summed busy seconds and the uptime.
func busy(st server.Stats) (float64, float64) {
	up := float64(st.UptimeNs) / 1e9
	b := 0.0
	for _, sh := range st.Shards {
		b += sh.Utilization * up
	}
	return b, up
}

func servicePass(c config, traced bool) (*pass, error) {
	p := &pass{E2E: map[string]float64{}, Layers: map[string]float64{}}
	m, err := newMix(c.seed)
	if err != nil {
		return nil, err
	}
	fixedSeconds := math.Max(1, math.Round(c.seconds*2/3))
	fixed, err := m.schedule(fixedRate, fixedSeconds)
	if err != nil {
		return nil, err
	}

	warm, err := m.warmUp(poolFill)
	if err != nil {
		return nil, err
	}
	// Set-up's CPU time comes from the exit status of servers stopped
	// right after it; the server after them is the one measured.
	var setups, setupCPU []float64
	var srv *striderd
	for i := 0; i <= serverStarts; i++ {
		s, d, err := startServer(c, traced && i == serverStarts, warm)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i == serverStarts {
			srv = s
			break
		}
		s.stop()
		setupCPU = append(setupCPU, (s.cmd.ProcessState.UserTime() + s.cmd.ProcessState.SystemTime()).Seconds())
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()

	var before, after server.Stats
	if err := getJSON(srv.url+"/stats", &before); err != nil {
		return nil, err
	}
	profPath := filepath.Join(c.work, "service.cpu.pprof")
	profErr := make(chan error, 1)
	if traced {
		go func() {
			profErr <- fetch(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", srv.pprof, int(fixedSeconds)), profPath)
		}()
	}
	cpu0, err := procCPU(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	outs := drive(srv.url, fixed, 0)
	cpu1, err := procCPU(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	if err := getJSON(srv.url+"/stats", &after); err != nil {
		return nil, err
	}
	if traced {
		if err := <-profErr; err != nil {
			return nil, fmt.Errorf("striderd profile: %w", err)
		}
	}

	// Capacity: requests completed per second while the generator offers
	// more than the server can take, so both connections stay busy.
	satSeconds := c.seconds - fixedSeconds
	sat, err := m.schedule(satRate, satSeconds)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	satOuts := drive(srv.url, sat, time.Duration(satSeconds*1e9))
	p.E2E["ops_per_s"] = float64(len(satOuts)) / time.Since(t0).Seconds()
	for _, o := range satOuts {
		if o.failure != "" {
			p.fail("saturation %s request: %s", classNames[o.class], o.failure)
		}
	}
	if traced {
		// The highest offered rate that meets the p99 limit, a slower and
		// noisier reading of capacity, is reported with the layers.
		p.Layers["svc.max_rps"] = searchRate(srv.url, m, 0.8*p.E2E["ops_per_s"], p)
	}
	p.E2E["peak_rss_mb"] = srv.stop()
	srv = nil

	var all, executed simSum
	for _, o := range outs {
		p.Attempted++
		if o.failure != "" {
			p.fail("%s request: %s", classNames[o.class], o.failure)
			continue
		}
		st := *o.resp.Stats
		all.add(st, 0)
		switch {
		case o.resp.Cached:
		case o.resp.Pooled:
			executed.add(st, 1)
		default:
			executed.add(st, 2) // one warm-up plus the measured run
		}
	}
	lat := latMs(outs, nil, latency)
	// Medians over windows, so a burst of host noise in one window does
	// not set the run's reading.
	var p50s, p99s []float64
	for w := 0; w < windows; w++ {
		win := lat[w*len(lat)/windows : (w+1)*len(lat)/windows]
		p50s = append(p50s, median(win))
		p99s = append(p99s, percentile(win, 99))
	}
	p.Digest = all.digest()
	p.Layers["svc.p50_ms"] = median(p50s)
	p.Layers["svc.p99_ms"] = median(p99s)
	p.E2E["ok_ratio"] = 1 - ratio(float64(len(p.Failures)), float64(p.Attempted))
	p.E2E["cpu_ms_per_op"] = (cpu1 - cpu0) * 1e3 / float64(len(outs))
	// The profile covers the fixed-rate phase, whose wall time is fixed by
	// the schedule, so trace overhead compares striderd's CPU per request.
	p.Wall = (cpu1 - cpu0) / float64(len(outs))
	p.E2E["setup_wall_s"] = median(setups)
	p.E2E["setup_cpu_s"] = median(setupCPU)
	if !traced {
		return p, nil
	}

	l := p.Layers
	if err := foldProfile(profPath, "server", l); err != nil {
		return nil, err
	}
	all.simLayers(l)
	executed.hostPerSim(l)
	isClass := func(k int) func(outcome) bool { return func(o outcome) bool { return o.class == k && o.failure == "" } }
	execd := func(o outcome) bool { return o.failure == "" && !o.resp.Cached }
	runNs := func(o outcome) time.Duration { return time.Duration(o.resp.WallNs) }
	queue := func(o outcome) time.Duration { return o.latency - time.Duration(o.resp.WallNs) }
	l["svc.hit_p50_ms"] = median(latMs(outs, isClass(classHit), latency))
	l["svc.rerun_p50_ms"] = median(latMs(outs, isClass(classRerun), latency))
	l["svc.fresh_p50_ms"] = median(latMs(outs, isClass(classFresh), latency))
	l["svc.fresh_p99_ms"] = percentile(latMs(outs, isClass(classFresh), latency), 99)
	l["server.run_ms_rerun_p50"] = median(latMs(outs, isClass(classRerun), runNs))
	l["server.run_ms_fresh_p50"] = median(latMs(outs, isClass(classFresh), runNs))
	l["server.queue_ms_p50"] = median(latMs(outs, execd, queue))
	l["server.queue_ms_p99"] = percentile(latMs(outs, execd, queue), 99)
	l["loadgen.late_ms_p99"] = percentile(latMs(outs, nil, func(o outcome) time.Duration { return o.late }), 99)
	dc := func(f func(server.Stats) uint64) float64 { return float64(f(after) - f(before)) }
	hits := dc(func(s server.Stats) uint64 { return s.Cache.Hits })
	l["server.cache_hit_ratio"] = ratio(hits, hits+
		dc(func(s server.Stats) uint64 { return s.Cache.Misses })+
		dc(func(s server.Stats) uint64 { return s.Cache.DedupJoins }))
	ph := dc(func(s server.Stats) uint64 { return s.Pool.Hits })
	l["server.pool_hit_ratio"] = ratio(ph, ph+dc(func(s server.Stats) uint64 { return s.Pool.Misses }))
	b0, u0 := busy(before)
	b1, u1 := busy(after)
	l["server.shard_util"] = ratio(b1-b0, (u1-u0)*float64(len(after.Shards)))
	l["oracle.ref_ms"] = median(m.refMs)
	var buildMs, newMs []float64
	for _, r := range fixed {
		if r.class != classFresh || len(buildMs) == 64 {
			continue
		}
		t := time.Now()
		prog := progfuzz.Program(r.seed)
		buildMs = append(buildMs, ms(time.Since(t)))
		t = time.Now()
		vm.New(prog, vm.Config{HeapBytes: fuzzHeap})
		newMs = append(newMs, ms(time.Since(t)))
	}
	l["workloads.build_ms"], l["vm.new_ms"] = median(buildMs), median(newMs)
	return p, nil
}

// searchRate probes offered rates for searchSeconds and returns the
// highest that met the limit: from the start rate in steps of 10% until a
// probe fails (or down until one passes), then bisecting. Wrong answers
// during probes are failures of the run; refusals only fail the probe.
func searchRate(url string, m *mix, rate float64, p *pass) float64 {
	best, worst := 0.0, math.Inf(1)
	for i := 0; i < int(searchSeconds/probeSeconds); i++ {
		reqs, err := m.schedule(rate, probeSeconds)
		if err != nil {
			p.fail("probe schedule: %v", err)
			return 0
		}
		outs := drive(url, reqs, 0)
		for _, o := range outs {
			if o.failure != "" && !o.refused {
				p.fail("probe at %.0f req/s: %s", rate, o.failure)
			}
		}
		ok := meetsLimit(outs)
		fmt.Fprintf(os.Stderr, "driver: probe %.1f req/s: p99 %.2f ms, pass=%v\n",
			rate, percentile(latMs(outs, nil, latency), 99), ok)
		if ok {
			best = rate
		} else {
			worst = rate
		}
		switch {
		case best == 0:
			rate = worst / 1.1
		case math.IsInf(worst, 1):
			rate = best * 1.1
		default:
			rate = (best + worst) / 2
		}
		if best == 0 && rate < fixedRate/4 {
			return 0
		}
	}
	return best
}

// fetch GETs url into path.
func fetch(url, path string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
