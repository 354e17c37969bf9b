package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/smartgrid/aria/internal/ctl"
	"github.com/smartgrid/aria/internal/eventlog"
	"github.com/smartgrid/aria/internal/wal"
)

// live-grid sizing.
const (
	liveNodes   = 5
	liveRate    = 80.0 // jobs/s, open loop; about half the closed-loop knee on a 2-CPU host
	liveERT     = "10ms"
	liveLimit   = 10 * time.Second // a job not started this long after its due time counts as failed
	liveSetups  = 5                // grid launches per run; setup_s is their median
	liveLagMax  = 500 * time.Millisecond
	steadyAfter = 3500 * time.Millisecond // past the first offer window, every job phase is in flight
	readyWithin = 30 * time.Second
	calibrate   = 3 // control-plane submissions per daemon that pin its event clock
	ctlTimeout  = 5 * time.Second
)

type daemonProc struct {
	id                    int
	proto, ctl, debug     string
	events, data, logFile string
	cmd                   *exec.Cmd
	exited                chan struct{}
}

type grid struct {
	bin, dir string
	seed     int64
	traced   bool
	daemons  []*daemonProc
	gate     *exec.Cmd
	gateDone chan struct{}
	gateAddr string
}

// freePorts reserves n loopback ports by binding and releasing them.
func freePorts(n int) ([]string, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	var out []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		out = append(out, ln.Addr().String())
	}
	return out, nil
}

func startProc(path string, args []string, logPath string) (*exec.Cmd, chan struct{}, error) {
	f, err := os.Create(logPath)
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(path, args...)
	cmd.Stdout, cmd.Stderr = f, f
	cmd.SysProcAttr = orphanGuard()
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, nil, err
	}
	done := make(chan struct{})
	go func() {
		_ = cmd.Wait()
		f.Close()
		close(done)
	}()
	return cmd, done, nil
}

// launch starts the daemons and the gateway in a fresh directory.
func (g *grid) launch(gen int) error {
	ports, err := freePorts(3*liveNodes + 1)
	if err != nil {
		return err
	}
	dir := filepath.Join(g.dir, fmt.Sprintf("grid-%d", gen))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	g.daemons = nil
	for i := 0; i < liveNodes; i++ {
		g.daemons = append(g.daemons, &daemonProc{
			id: i, proto: ports[3*i], ctl: ports[3*i+1], debug: ports[3*i+2],
			events:  filepath.Join(dir, fmt.Sprintf("events-%d.jsonl", i)),
			data:    filepath.Join(dir, fmt.Sprintf("data-%d", i)),
			logFile: filepath.Join(dir, fmt.Sprintf("ariad-%d.log", i)),
		})
	}
	g.gateAddr = ports[3*liveNodes]
	for _, d := range g.daemons {
		var peers []string
		for _, o := range g.daemons {
			if o.id != d.id {
				peers = append(peers, fmt.Sprintf("%d=%s", o.id, o.proto))
			}
		}
		args := []string{
			"-id", strconv.Itoa(d.id),
			"-listen", d.proto,
			"-control", d.ctl,
			"-peers", strings.Join(peers, ","),
			"-neighbors", fmt.Sprintf("%d,%d", (d.id+liveNodes-1)%liveNodes, (d.id+1)%liveNodes),
			// Each launch gets its own daemon seeds, so setup_s's median
			// spans several membership-probe schedules, not one.
			"-seed", strconv.FormatInt((g.seed*liveSetups+int64(gen))*100+int64(d.id), 10),
			"-epsilon", "0",
			"-events", d.events,
			"-data-dir", d.data,
			"-assign-ack", "-notify",
			"-probe-interval", "1s", "-probe-timeout", "500ms", "-suspect-timeout", "3s",
			"-directed-candidates", "2",
		}
		if g.traced {
			args = append(args, "-debug", d.debug)
		}
		if d.cmd, d.exited, err = startProc(filepath.Join(g.bin, "ariad"), args, d.logFile); err != nil {
			return fmt.Errorf("start ariad %d: %w", d.id, err)
		}
	}
	// The per-tenant bucket sits far above the offered rate: admission
	// control is not what this workload measures.
	g.gate, g.gateDone, err = startProc(filepath.Join(g.bin, "ariagate"), []string{
		"-listen", g.gateAddr, "-daemon", g.daemons[0].ctl,
		"-rate", "100000", "-burst", "100000", "-max-batch", "64",
	}, filepath.Join(dir, "ariagate.log"))
	if err != nil {
		return fmt.Errorf("start ariagate: %w", err)
	}
	return nil
}

// ready reports whether every daemon answers and sees both ring neighbors
// alive, and the gateway is healthy.
func (g *grid) ready() bool {
	for _, d := range g.daemons {
		resp, err := ctl.Call(d.ctl, ctl.Request{Op: ctl.OpMembers}, time.Second)
		if err != nil || !resp.OK {
			return false
		}
		alive := 0
		for _, m := range resp.Members {
			if m.State == "alive" {
				alive++
			}
		}
		if alive < 2 {
			return false
		}
	}
	resp, err := http.Get("http://" + g.gateAddr + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// waitReady polls until ready, failing fast if a process died.
func (g *grid) waitReady() error {
	deadline := time.Now().Add(readyWithin)
	for !g.ready() {
		if err := g.dead(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("grid not ready within %v", readyWithin)
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil
}

func (g *grid) dead() error {
	for _, d := range g.daemons {
		select {
		case <-d.exited:
			return fmt.Errorf("ariad %d exited early (see %s)", d.id, d.logFile)
		default:
		}
	}
	select {
	case <-g.gateDone:
		return fmt.Errorf("ariagate exited early")
	default:
	}
	return nil
}

// pids lists the daemons' and the gateway's process IDs (gateway last).
func (g *grid) pids() []int {
	var out []int
	for _, d := range g.daemons {
		out = append(out, d.cmd.Process.Pid)
	}
	return append(out, g.gate.Process.Pid)
}

// stop SIGTERMs every process and waits for it; returns the processes that
// did not exit cleanly within the drain window.
func (g *grid) stop() []string {
	var bad []string
	wait := func(name string, cmd *exec.Cmd, done chan struct{}) {
		if cmd == nil {
			return
		}
		_ = cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-done:
			if code := cmd.ProcessState.ExitCode(); code != 0 {
				bad = append(bad, fmt.Sprintf("%s exit code %d", name, code))
			}
		case <-time.After(15 * time.Second):
			_ = cmd.Process.Kill()
			<-done
			bad = append(bad, name+" did not drain within 15s")
		}
	}
	wait("ariagate", g.gate, g.gateDone)
	for _, d := range g.daemons {
		wait(fmt.Sprintf("ariad %d", d.id), d.cmd, d.exited)
	}
	g.gate = nil
	for _, d := range g.daemons {
		d.cmd = nil
	}
	return bad
}

// kill is the error-path cleanup: SIGKILL whatever still runs and reap it.
func (g *grid) kill() {
	if g.gate != nil {
		_ = g.gate.Process.Kill()
		<-g.gateDone
		g.gate = nil
	}
	for _, d := range g.daemons {
		if d.cmd != nil {
			_ = d.cmd.Process.Kill()
			<-d.exited
			d.cmd = nil
		}
	}
}

// job is one open-loop submission.
type liveJob struct {
	due, sent, replied time.Duration // since the run epoch
	uuid               string
	err                string
}

// calib brackets one control-plane submission to a daemon.
type calib struct {
	send, recv time.Duration
}

func runLive(r *result, seed int64, seconds int, traced bool, work, bin string) error {
	if time.Duration(seconds)*time.Second < 2*steadyAfter {
		return fmt.Errorf("live-grid needs --seconds of at least %v to reach steady state", 2*steadyAfter)
	}
	g := &grid{bin: bin, dir: work, seed: seed, traced: traced}
	defer g.kill()
	r.context["nodes"] = liveNodes
	r.context["overlay"] = "ring"
	r.context["rate_jobs_per_s"] = liveRate
	r.context["loop"] = "open (Poisson arrivals)"
	r.context["wal_fs"] = fsType(work)
	r.context["latency_limit_s"] = liveLimit.Seconds()

	// Set-up: launch the grid liveSetups times; the last one takes load.
	var setups []float64
	for gen := 0; gen < liveSetups; gen++ {
		t0 := time.Now()
		if err := g.launch(gen); err != nil {
			return err
		}
		if err := g.waitReady(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if gen < liveSetups-1 {
			if bad := g.stop(); len(bad) > 0 {
				r.fail("set-up grid %d shutdown: %s", gen, strings.Join(bad, "; "))
			}
		}
	}

	epoch := time.Now()
	since := func() time.Duration { return time.Since(epoch) }
	var calibs = map[string]calib{}
	for _, d := range g.daemons {
		for k := 0; k < calibrate; k++ {
			t0 := since()
			resp, err := ctl.Call(d.ctl, ctl.Request{Op: ctl.OpSubmit, Arch: "AMD64", OS: "LINUX", MinMemoryGB: 1, MinDiskGB: 1, ERT: liveERT}, ctlTimeout)
			if err != nil || !resp.OK {
				return fmt.Errorf("calibration submit to ariad %d: %v %s", d.id, err, resp.Error)
			}
			calibs[resp.UUID] = calib{send: t0, recv: since()}
		}
	}

	// Open-loop schedule: Poisson arrivals at liveRate for the run.
	rng := rand.New(rand.NewSource(seed))
	loadStart := since() + 200*time.Millisecond
	var jobs []*liveJob
	for t := loadStart; t < loadStart+time.Duration(seconds)*time.Second; t += time.Duration(rng.ExpFloat64() / liveRate * float64(time.Second)) {
		jobs = append(jobs, &liveJob{due: t})
	}
	loadEnd := loadStart + time.Duration(seconds)*time.Second
	mid := loadStart + (loadEnd-loadStart)/2

	pids := g.pids()
	// CPU of the daemons and the gateway, sampled once a second from the
	// load start until the drain ends.
	var cpuSamples []cpuMark
	stopSampling := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		next := loadStart
		for {
			if d := next - since(); d > 0 {
				select {
				case <-stopSampling:
					return
				case <-time.After(d):
				}
			}
			cpuSamples = append(cpuSamples, cpuMark{at: since(), cpu: cpuOf(pids)})
			next += time.Second
		}
	}()

	// Traced run: CPU profiles of every daemon over the second half.
	var profWG sync.WaitGroup
	profiles := make([][]byte, liveNodes)
	profErrs := make([]error, liveNodes)
	var walBytes int64
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	if traced {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			walBytes = pollJournalGrowth(g.daemons, stopPoll)
		}()
	}

	syscw0 := ioOf(pids[:liveNodes], "syscw")
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     runtime.NumCPU(),
			MaxIdleConnsPerHost: runtime.NumCPU(),
		},
	}
	// Room for every job: the schedule never blocks on a slow worker, and
	// a backlog shows up as lag instead.
	queue := make(chan *liveJob, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				submit(client, g.gateAddr, j, since)
			}
		}()
	}
	sleepUntil := func(t time.Duration) {
		if d := t - since(); d > 0 {
			time.Sleep(d)
		}
	}
	sleepUntil(loadStart)
	refs := hostRefs{kind: refService}
	if !traced {
		refs.every(refEvery)
	}
	profStarted := false
	for _, j := range jobs {
		if traced && !profStarted && j.due >= mid {
			profStarted = true
			secs := int((loadEnd-mid)/time.Second) + 1
			for i, d := range g.daemons {
				profWG.Add(1)
				go func(i int, addr string) {
					defer profWG.Done()
					profiles[i], profErrs[i] = fetch(fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", addr, secs), time.Duration(secs+20)*time.Second)
				}(i, d.debug)
			}
		}
		sleepUntil(j.due)
		queue <- j
	}
	close(queue)
	wg.Wait()
	refs.halt()

	// Drain: wait until every accepted job has completed somewhere.
	accepted := map[string]*liveJob{}
	for _, j := range jobs {
		if j.uuid != "" {
			accepted[j.uuid] = j
		}
	}
	want := len(accepted) + len(calibs)
	drainDeadline := loadEnd + liveLimit + 5*time.Second
	var logs [][]eventlog.Event
	for {
		var err error
		if logs, err = readLogs(g.daemons); err != nil {
			return err
		}
		if countCompleted(logs) >= want || since() > drainDeadline {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	close(stopSampling)
	samplerWG.Wait()
	drained := since()
	syscw1 := ioOf(pids[:liveNodes], "syscw")
	var rssKB int64
	for _, pid := range pids {
		kb, err := procStatusKB(pid, "VmHWM")
		if err != nil {
			return err
		}
		rssKB += kb
	}
	gateCPU := cpuOf(pids[liveNodes:])
	profWG.Wait()
	close(stopPoll)
	pollWG.Wait()
	var vars []map[string]json.RawMessage
	var allocProfiles [][]byte
	if traced {
		for _, d := range g.daemons {
			b, err := fetch("http://"+d.debug+"/debug/vars", 5*time.Second)
			if err != nil {
				return err
			}
			var v map[string]json.RawMessage
			if err := json.Unmarshal(b, &v); err != nil {
				return err
			}
			vars = append(vars, v)
			b, err = fetch("http://"+d.debug+"/debug/pprof/allocs", 10*time.Second)
			if err != nil {
				return err
			}
			allocProfiles = append(allocProfiles, b)
		}
	}

	// Graceful drain and the durability check.
	if bad := g.stop(); len(bad) > 0 {
		r.fail("SIGTERM drain: %s", strings.Join(bad, "; "))
	}
	for _, d := range g.daemons {
		if err := reload(d.data); err != nil {
			r.fail("ariad %d data dir does not load back cleanly: %v", d.id, err)
		}
	}
	logs, err := readLogs(g.daemons)
	if err != nil {
		return err
	}

	a := analyze(r, logs, jobs, calibs)
	var lags, submitMs []float64
	for _, j := range jobs {
		lags = append(lags, float64(j.sent-j.due)/1e6)
		submitMs = append(submitMs, float64(j.replied-j.sent)/1e6)
	}
	lagP99 := quantile(lags, 0.99)
	if time.Duration(lagP99*1e6) > liveLagMax {
		r.fail("open-loop generator fell behind: lag p99 %.1f ms > %v; the run is invalid", lagP99, liveLagMax)
	}
	r.notes = append(r.notes, fmt.Sprintf("generator: %d jobs due, lag p99 %.3f ms, %d HTTP connections max", len(jobs), lagP99, runtime.NumCPU()))

	completed := float64(a.completed)
	// Steady-state CPU per job: the interquartile mean of the per-second
	// CPU rate, divided by the realized arrival rate of the same window.
	// Ramp-up (the first offer window) and drain are left out.
	perJob := func(from, to time.Duration) float64 {
		var rates []float64
		for i := 1; i < len(cpuSamples); i++ {
			a, b := cpuSamples[i-1], cpuSamples[i]
			if mid := (a.at + b.at) / 2; mid >= from && mid < to {
				rates = append(rates, (b.cpu-a.cpu).Seconds()/(b.at-a.at).Seconds())
			}
		}
		n := 0
		for _, j := range jobs {
			if j.due >= from && j.due < to {
				n++
			}
		}
		return ratio(interquartileMean(rates), float64(n)/(to-from).Seconds())
	}
	steady := loadStart + steadyAfter
	if !traced {
		r.set("setup_s", median(setups), len(setups), "first daemon launch until every daemon answers with both ring neighbors alive and the gateway is healthy; median")
		r.set("peak_rss_mb", float64(rssKB)/1024, len(pids), "sum of VmHWM over daemons and gateway")
		r.set("ok_frac", 1-ratio(float64(r.failed), float64(r.attempted)), r.attempted, "1 - failed_frac (refused, failed, lost, duplicated or started later than the limit)")
		r.set("run_s", (a.lastDone - loadStart).Seconds(), 1, "campaign makespan: load start until the last job completed")
		hostFactor, err := refs.factor()
		if err != nil {
			return err
		}
		raw := 1000 * perJob(steady, loadEnd)
		r.set("cpu_ms_per_job", raw*hostFactor, int((loadEnd-steady)/time.Second), "live_cpu_ms_per_job: daemons+gateway utime+stime per job at steady state (interquartile mean of 1 s rates), in reference ms")
		r.set("host.cpu_ms_per_job", raw, int((loadEnd-steady)/time.Second), "cpu_ms_per_job in host ms, before scaling by the reference probe")
		refs.report(r, "cpu_ms_per_job")
		r.set("latency_p50_s", median(a.start), len(a.start), "live_start_p50_s: submit→started, from each job's due time")
		r.set("latency_tail_s", quantile(a.start, 0.99), len(a.start), "live_start_p99_s: submit→started, from each job's due time")
		r.set("gen.lag_p99_ms", lagP99, len(lags), "how late the open loop ran")
		r.set("gate.submit_ms_p50", median(submitMs), len(submitMs), "gateway POST round trip")
		r.set("gate.submit_ms_p99", quantile(submitMs, 0.99), len(submitMs), "gateway POST round trip")
		return nil
	}

	// Per-layer numbers of the traced run.
	cpuProf := map[string]float64{}
	var cpuTot float64
	for i, b := range profiles {
		if profErrs[i] != nil {
			return fmt.Errorf("cpu profile of ariad %d: %w", i, profErrs[i])
		}
		p, err := parseProfile(b)
		if err != nil {
			return err
		}
		by, tot := p.selfByLayer(p.sampleIndex("cpu"), "ariad")
		for l, v := range by {
			cpuProf[l] += v
		}
		cpuTot += tot
	}
	allocProf := map[string]float64{}
	var allocTot float64
	for _, b := range allocProfiles {
		p, err := parseProfile(b)
		if err != nil {
			return err
		}
		by, tot := p.selfByLayer(p.sampleIndex("alloc_space"), "ariad")
		for l, v := range by {
			allocProf[l] += v
		}
		allocTot += tot
	}
	share := func(l string) float64 { return ratio(cpuProf[l], cpuTot) }

	// Tracing overhead: CPU per job with the daemons' profilers running
	// (second half) against without (first half past the ramp-up).
	overhead := perJob(mid, loadEnd)/perJob(steady, mid) - 1

	dir, err := sumCounters(vars, "aria.directory")
	if err != nil {
		return err
	}
	rounds := dir["hits"] + dir["misses"]
	var gcCycles, gcFrac float64
	for _, v := range vars {
		var ms struct {
			NumGC         float64
			GCCPUFraction float64
		}
		if err := json.Unmarshal(v["memstats"], &ms); err != nil {
			return fmt.Errorf("daemon memstats: %w", err)
		}
		gcCycles += ms.NumGC
		gcFrac += ms.GCCPUFraction / float64(len(vars))
	}
	micro, err := runSimChild(simSpec{Workload: "capture", Seed: seed, Traced: true, WorkDir: work})
	if err != nil {
		return err
	}

	zero := func(name, why string) { r.set(name, 0, 0, why) }
	for _, n := range []string{"sim.events", "sim.ns_per_event", "sim.completion_mean_s",
		"runtime.allocs_per_event", "runtime.alloc_bytes_per_event", "overlay.build_s"} {
		zero(n, "no simulator on this workload")
	}
	for _, n := range []string{"core.msgs_per_job", "core.request_msgs_per_job", "core.inform_msgs_per_job"} {
		zero(n, "the daemons expose no per-type message counters")
	}
	r.set("sim.cpu_frac", share("sim"), 1, "daemon CPU profiles, self share (expected 0)")
	r.set("transport.cpu_frac", share("transport"), 1, "daemon CPU profiles, self share (TCP transport and frame codec)")
	r.set("transport.alloc_frac", ratio(allocProf["transport"], allocTot), 1, "daemon alloc_space profiles, share")
	r.set("transport.write_syscalls_per_job", ratio(float64(syscw1-syscw0), completed), a.completed, "write(2) calls of all daemons per completed job (wire, WAL appends and event-log lines)")
	for _, k := range []string{"transport.codec_ns_per_msg", "transport.codec_allocs_per_msg",
		"directory.codec_ns_per_digest", "directory.codec_allocs_per_digest",
		"directory.learn_gossip_ns_per_digest", "directory.learn_gossip_allocs_per_digest",
		"wal.append_sync_us_p50", "wal.append_sync_us_p99", "wal.append_allocs_per_op"} {
		r.set(k, micro.Micro[k], 1, "microbenchmark on messages captured from a small iDirected replay; WAL on the daemons' filesystem")
	}
	r.set("core.cpu_frac", share("core"), 1, "daemon CPU profiles, self share")
	r.set("core.discovery_s_p50", median(a.discovery), len(a.discovery), "submitted→assigned at the initiator")
	r.set("core.discovery_s_p99", quantile(a.discovery, 0.99), len(a.discovery), "submitted→assigned at the initiator")
	r.set("core.queue_s_p50", median(a.queue), len(a.queue), "assigned→started")
	r.set("core.queue_s_p99", quantile(a.queue, 0.99), len(a.queue), "assigned→started")
	r.set("core.flood_fallback_frac", ratio(dir["misses"]+dir["fallbacks"], rounds), int(rounds), "first rounds that flooded (miss or starved directed probe), aria.directory expvar")
	r.set("directory.cpu_frac", share("directory"), 1, "daemon CPU profiles, self share")
	r.set("directory.evictions_per_job", ratio(dir["evictions"], completed), a.completed, "aria.directory evictions per completed job")
	r.set("directory.hit_frac", ratio(dir["hits"], rounds), int(rounds), "first rounds steered by the directory")
	r.set("overlay.cpu_frac", share("overlay"), 1, "daemon CPU profiles, self share")
	r.set("sched.cpu_frac", share("sched"), 1, "daemon CPU profiles, self share")
	r.set("wal.bytes_per_job", ratio(float64(walBytes), completed), a.completed, "journal growth over all daemons per completed job (50 ms polls)")
	r.set("wal.cpu_frac", share("wal"), 1, "daemon CPU profiles, self share")
	r.set("gate.submit_ms_p50", median(submitMs), len(submitMs), "gateway POST round trip")
	r.set("gate.submit_ms_p99", quantile(submitMs, 0.99), len(submitMs), "gateway POST round trip")
	r.set("gate.cpu_ms_per_job", 1000*ratio(gateCPU.Seconds(), completed), a.completed, "gateway utime+stime (whole life) per completed job")
	r.set("runtime.gc_cpu_frac", gcFrac, len(vars), "daemons' memstats GCCPUFraction, mean")
	r.set("runtime.gc_cycles", gcCycles, len(vars), "daemons' memstats NumGC, sum")
	r.set("runtime.cpu_frac", share("runtime"), 1, "daemon CPU samples with no repo frame")
	r.set("gen.lag_p99_ms", lagP99, len(lags), "how late the open loop ran")
	r.set("trace.overhead_frac", overhead, 2, "CPU per job with pprof on (second half) vs off (first half) - 1")
	r.set("ariad.cpu_frac", share("ariad"), 1, "daemon main package (observers, event-log glue)")
	r.set("ctl.cpu_frac", share("ctl"), 1, "control plane")
	r.set("eventlog.cpu_frac", share("eventlog"), 1, "-events JSON lines")
	r.set("live.drain_s", (drained - loadEnd).Seconds(), 1, "load end until every job completed (poll granularity 200 ms)")
	if a.example != "" {
		r.notes = append(r.notes, "example job spans: "+a.example)
	}
	return nil
}

type cpuMark struct {
	at  time.Duration
	cpu time.Duration
}

func cpuOf(pids []int) time.Duration {
	var total time.Duration
	for _, pid := range pids {
		c, err := procCPU(pid)
		if err == nil {
			total += c
		}
	}
	return total
}

func ioOf(pids []int, key string) int64 {
	var total int64
	for _, pid := range pids {
		v, err := procIO(pid, key)
		if err == nil {
			total += v
		}
	}
	return total
}

func submit(client *http.Client, gate string, j *liveJob, since func() time.Duration) {
	j.sent = since()
	resp, err := client.Post("http://"+gate+"/v1/jobs", "application/json", strings.NewReader(`{"ert":"`+liveERT+`"}`))
	if err != nil {
		j.replied, j.err = since(), err.Error()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	j.replied = since()
	if err != nil {
		j.err = err.Error()
		return
	}
	var reply struct {
		Results []struct {
			UUID  string `json:"uuid"`
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &reply); err != nil || len(reply.Results) != 1 {
		j.err = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return
	}
	j.uuid, j.err = reply.Results[0].UUID, reply.Results[0].Error
}

func fetch(url string, timeout time.Duration) ([]byte, error) {
	c := &http.Client{Timeout: timeout}
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func readLogs(ds []*daemonProc) ([][]eventlog.Event, error) {
	var out [][]eventlog.Event
	for _, d := range ds {
		f, err := os.Open(d.events)
		if err != nil {
			return nil, err
		}
		evs, err := eventlog.Read(f)
		f.Close()
		if err != nil {
			// A line may be half-written while the daemon runs; the
			// complete prefix is what we have so far.
			if len(evs) == 0 {
				return nil, err
			}
		}
		out = append(out, evs)
	}
	return out, nil
}

func countCompleted(logs [][]eventlog.Event) int {
	n := 0
	for _, evs := range logs {
		for _, e := range evs {
			if e.Kind == eventlog.KindCompleted {
				n++
			}
		}
	}
	return n
}

// pollJournalGrowth sums every daemon's journal growth until stop closes;
// a shrink is a snapshot compaction, after which growth restarts from 0.
func pollJournalGrowth(ds []*daemonProc, stop chan struct{}) int64 {
	last := make([]int64, len(ds))
	var total int64
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		for i, d := range ds {
			st, err := os.Stat(filepath.Join(d.data, wal.JournalFile))
			if err != nil {
				continue
			}
			size := st.Size()
			if size >= last[i] {
				total += size - last[i]
			} else {
				total += size
			}
			last[i] = size
		}
		select {
		case <-stop:
			return total
		case <-t.C:
		}
	}
}

func sumCounters(vars []map[string]json.RawMessage, key string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, v := range vars {
		var m map[string]float64
		if err := json.Unmarshal(v[key], &m); err != nil {
			return nil, fmt.Errorf("daemon expvar %s: %w", key, err)
		}
		for k, x := range m {
			out[k] += x
		}
	}
	return out, nil
}

// reload opens a drained daemon's data directory the way a restart would
// and requires a clean load.
func reload(dir string) error {
	store, err := wal.OpenFileStore(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	_, _, info, err := wal.New(store, wal.Options{}).Load()
	if err != nil {
		return err
	}
	if !info.Clean() {
		return fmt.Errorf("load info %+v", info)
	}
	return nil
}

// liveAnalysis is what the event logs say about the campaign.
type liveAnalysis struct {
	start, discovery, queue []float64
	completed               int
	lastDone                time.Duration
	example                 string
}

// analyze audits exactly-once execution and derives the per-job phase
// timings, mapping each daemon's event clock onto the run epoch.
func analyze(r *result, logs [][]eventlog.Event, jobs []*liveJob, calibs map[string]calib) liveAnalysis {
	var a liveAnalysis
	// Each daemon's clock offset: the tightest bracket of a submission
	// whose "submitted" event it logged. Daemon 0 also logs every
	// gateway submission.
	offset := make([]time.Duration, len(logs))
	width := make([]time.Duration, len(logs))
	for i := range width {
		width[i] = -1
	}
	sent := map[string][2]time.Duration{}
	for _, j := range jobs {
		if j.uuid != "" {
			sent[j.uuid] = [2]time.Duration{j.sent, j.replied}
		}
	}
	for uuid, c := range calibs {
		sent[uuid] = [2]time.Duration{c.send, c.recv}
	}
	for i, evs := range logs {
		for _, e := range evs {
			if e.Kind != eventlog.KindSubmitted {
				continue
			}
			b, ok := sent[string(e.UUID)]
			if !ok {
				continue
			}
			at := time.Duration(e.At * 1e9)
			if w := b[1] - b[0]; width[i] < 0 || w < width[i] {
				width[i], offset[i] = w, (b[0]+b[1])/2-at
			}
		}
		if width[i] < 0 {
			r.fail("ariad %d logged none of its calibration submissions", i)
		}
	}
	wall := func(i int, e eventlog.Event) time.Duration { return offset[i] + time.Duration(e.At*1e9) }

	type life struct {
		submitted, assigned, started, completed time.Duration
		nStart, nDone, nFail                    int
		hasAssigned                             bool
	}
	lives := map[string]*life{}
	get := func(u string) *life {
		l, ok := lives[u]
		if !ok {
			l = &life{}
			lives[u] = l
		}
		return l
	}
	for i, evs := range logs {
		for _, e := range evs {
			u := string(e.UUID)
			switch e.Kind {
			case eventlog.KindSubmitted:
				get(u).submitted = wall(i, e)
			case eventlog.KindAssigned:
				if l := get(u); !l.hasAssigned || wall(i, e) < l.assigned {
					l.assigned, l.hasAssigned = wall(i, e), true
				}
			case eventlog.KindStarted:
				l := get(u)
				l.nStart++
				l.started = wall(i, e)
			case eventlog.KindCompleted:
				l := get(u)
				l.nDone++
				l.completed = wall(i, e)
			case eventlog.KindFailed:
				get(u).nFail++
			}
		}
	}
	violations := 0
	exactlyOnce := func(u string) bool {
		l := lives[u]
		if l == nil || l.nStart != 1 || l.nDone != 1 || l.nFail != 0 {
			n := [3]int{}
			if l != nil {
				n = [3]int{l.nStart, l.nDone, l.nFail}
			}
			if violations++; violations <= 5 {
				r.fail("job %s: %d started, %d completed, %d failed events (want 1, 1, 0)", u, n[0], n[1], n[2])
			}
			return false
		}
		return true
	}
	for u := range calibs {
		exactlyOnce(u)
	}
	bad := 0
	for _, j := range jobs {
		r.attempted++
		if j.uuid == "" {
			r.failed++
			if bad++; bad <= 3 {
				r.notes = append(r.notes, "refused submission: "+j.err)
			}
			continue
		}
		if !exactlyOnce(j.uuid) {
			r.failed++
			continue
		}
		l := lives[j.uuid]
		a.completed++
		if l.completed > a.lastDone {
			a.lastDone = l.completed
		}
		lat := l.started - j.due
		a.start = append(a.start, lat.Seconds())
		if lat > liveLimit {
			r.failed++
		}
		if l.hasAssigned {
			a.discovery = append(a.discovery, (l.assigned - l.submitted).Seconds())
			a.queue = append(a.queue, (l.started - l.assigned).Seconds())
		}
		if a.example == "" {
			a.example = fmt.Sprintf("%s due=%.3fs post=%.1fms submitted→assigned=%.3fs assigned→started=%.3fs started→completed=%.3fs",
				j.uuid, j.due.Seconds(), float64(j.replied-j.sent)/1e6, (l.assigned - l.submitted).Seconds(),
				(l.started - l.assigned).Seconds(), (l.completed - l.started).Seconds())
		}
	}
	if violations > 5 {
		r.fail("%d jobs in all broke exactly-once execution", violations)
	}
	return a
}
