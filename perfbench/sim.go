package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/metrics"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/scenario"
)

// Sim workload sizing. Each replay runs in a fresh child process; a run
// makes replaysFor(seconds) of them, each on its own seed-derived inputs.
const (
	floodNodes      = 10000
	floodShards     = 4
	floodJobs       = 300 // per replay
	floodHorizon    = 3 * time.Hour
	floodReplayNomS = 5.0  // nominal seconds per flood replay on a 2-CPU host
	captureScale    = 0.05 // small iDirected replay feeding the layer microbenchmarks
	checkDrain      = 72 * time.Hour
	minSetups       = 5 // setup_s is the median of at least this many set-ups
	refsPerReplay   = 2 // host reference probes before each replay and after the last
)

// simSpec tells a child process which replay to run.
type simSpec struct {
	Workload  string `json:"workload"` // sim-flood-10k, or capture for the layer microbenchmarks
	Seed      int64  `json:"seed"`
	Replay    int    `json:"replay"`
	Traced    bool   `json:"traced"`
	SetupOnly bool   `json:"setupOnly"`
	Check     bool   `json:"check"` // run the causal trace checker on a scaled-down copy instead
	WorkDir   string `json:"workDir"`
}

// simOut is one child's report.
type simOut struct {
	SetupSec float64 `json:"setupSec"`
	RunSec   float64 `json:"runSec"`
	CPUSec   float64 `json:"cpuSec"` // process CPU from the first event to the horizon
	// StealSec is the hypervisor steal of all CPUs over the same span.
	StealSec float64 `json:"stealSec"`
	// ResultSec is the parent's view: child launch until its result, and
	// the steal of all CPUs over it.
	ResultSec      float64 `json:"-"`
	ResultStealSec float64 `json:"-"`
	Events         uint64  `json:"events"`

	Submitted  int `json:"submitted"`
	Completed  int `json:"completed"`
	Failed     int `json:"failed"`
	Duplicates int `json:"duplicates"`
	Lost       int `json:"lost"`

	CompletionMeanSec float64 `json:"completionMeanSec"`
	CompletionP50Sec  float64 `json:"completionP50Sec"`
	CompletionP95Sec  float64 `json:"completionP95Sec"`
	Msgs              int64   `json:"msgs"`
	RequestMsgs       int64   `json:"requestMsgs"`
	InformMsgs        int64   `json:"informMsgs"`

	DirHits      int `json:"dirHits"`
	DirMisses    int `json:"dirMisses"`
	DirFallbacks int `json:"dirFallbacks"`
	DirEvictions int `json:"dirEvictions"`

	Fingerprint string  `json:"fingerprint"`
	PeakRSSMB   float64 `json:"peakRssMb"`

	Mallocs    uint64  `json:"mallocs"`    // during the run segment
	AllocBytes uint64  `json:"allocBytes"` // during the run segment
	GCCycles   uint32  `json:"gcCycles"`   // during the run segment
	GCCPUFrac  float64 `json:"gcCpuFrac"`  // process lifetime

	// Traced replays only.
	Spans        []span             `json:"spans,omitempty"`
	CPUByLayer   map[string]float64 `json:"cpuByLayer,omitempty"`
	AllocByLayer map[string]float64 `json:"allocByLayer,omitempty"`
	Counted      int64              `json:"counted,omitempty"` // messages seen by the counting wrapper
	Micro        map[string]float64 `json:"micro,omitempty"`

	// Check children only.
	CheckError string `json:"checkError,omitempty"`
	CheckJobs  int    `json:"checkJobs,omitempty"`
}

// span is one timed call from the benchmark into a layer.
type span struct {
	Name  string  `json:"name"`
	Layer string  `json:"layer"`
	Start float64 `json:"start"` // seconds since the child started
	Sec   float64 `json:"sec"`
}

var childStart = time.Now()

func (o *simOut) addSpan(name, layer string, t0 time.Time) {
	o.Spans = append(o.Spans, span{Name: name, Layer: layer, Start: t0.Sub(childStart).Seconds(), Sec: time.Since(t0).Seconds()})
}

// subSeed derives an independent seed for one replay of a run.
func subSeed(seed int64, replay int, salt string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", salt, seed, replay)
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// simConfig is the scenario a workload replays.
func simConfig(workload string, seed int64) (scenario.Config, error) {
	switch workload {
	case "sim-flood-10k":
		cfg, err := scenario.ByName("iMixed")
		if err != nil {
			return cfg, err
		}
		cfg.Nodes = floodNodes
		cfg.Shards = floodShards
		cfg.Horizon = floodHorizon
		cfg.Seed = seed
		return cfg, nil
	case "capture":
		cfg, err := scenario.ByName("iDirected")
		if err != nil {
			return cfg, err
		}
		cfg = cfg.Scaled(captureScale)
		cfg.Seed = seed
		return cfg, nil
	}
	return scenario.Config{}, fmt.Errorf("unknown sim workload %q", workload)
}

// checkConfig is the scaled-down copy of a workload the causal trace
// checker audits: same protocol and kernel, 50 nodes.
func checkConfig(workload string, seed int64) (scenario.Config, error) {
	full, err := simConfig(workload, seed)
	if err != nil {
		return full, err
	}
	cfg, err := scenario.ByName(full.Name)
	if err != nil {
		return cfg, err
	}
	cfg = cfg.Scaled(0.1)
	cfg.Shards = full.Shards
	cfg.Seed = seed
	// The checker requires every job to complete, but Scaled leaves only
	// 24 h after the last submission: at the paper's load a queue can
	// still hold jobs then (seed 303 ends with 98 of 100 complete). The
	// copy is small, so a long horizon costs little.
	cfg.Horizon += checkDrain
	return cfg, nil
}

func kernelName(cfg scenario.Config) string {
	if cfg.Shards > 0 {
		return fmt.Sprintf("sharded, %d shards", cfg.Shards)
	}
	return "legacy single-heap engine"
}

// schedule arms the workload's submissions on a prepared deployment.
func schedule(spec simSpec, d *scenario.Deployment) error {
	if spec.Workload == "sim-flood-10k" {
		_, err := scenario.ReplaySWF(d, scenario.SyntheticTrace(floodJobs, subSeed(spec.Seed, spec.Replay, "trace")))
		return err
	}
	d.ScheduleSubmissions(scenario.ARiASubmit)
	return nil
}

// runSimChild executes one replay (or check) in a fresh child process, so
// VmHWM and the CPU profile cover that replay alone.
func runSimChild(spec simSpec) (*simOut, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	buf, _ := json.Marshal(spec)
	cmd := exec.Command(exe, "-child", string(buf))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = orphanGuard()
	t0, steal0 := time.Now(), stealTicks()
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s replay %d: %w", spec.Workload, spec.Replay, err)
	}
	resultSec, resultSteal := time.Since(t0).Seconds(), float64(stealTicks()-steal0)/clockTick
	var o simOut
	if err := json.Unmarshal(out, &o); err != nil {
		return nil, fmt.Errorf("%s replay %d: parsing child output: %w", spec.Workload, spec.Replay, err)
	}
	o.ResultSec, o.ResultStealSec = resultSec, resultSteal
	return &o, nil
}

// childMain is the entry point of a replay child.
func childMain(arg string) error {
	var spec simSpec
	if err := json.Unmarshal([]byte(arg), &spec); err != nil {
		return err
	}
	var (
		o   *simOut
		err error
	)
	if spec.Check {
		o, err = childCheck(spec)
	} else {
		o, err = childReplay(spec)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(o)
}

func childCheck(spec simSpec) (*simOut, error) {
	cfg, err := checkConfig(spec.Workload, spec.Seed)
	if err != nil {
		return nil, err
	}
	res, rep, err := scenario.RunTraced(cfg, 0)
	if err != nil {
		return nil, err
	}
	o := &simOut{CheckJobs: rep.Jobs, Submitted: res.Submitted, Completed: res.Completed}
	switch {
	case !rep.OK():
		o.CheckError = rep.String()
	case res.Completed != res.Submitted || res.DuplicateStarts != 0:
		o.CheckError = fmt.Sprintf("scaled-down copy completed %d of %d jobs with %d duplicate starts",
			res.Completed, res.Submitted, res.DuplicateStarts)
	}
	return o, nil
}

// trafficCounter is the traced run's SetTraffic wrapper: it counts every
// transmission, keeps a strided sample of messages for the layer microbenchmarks,
// and forwards to the deployment's own recorder.
type trafficCounter struct {
	total  atomic.Int64
	mu     sync.Mutex
	sample []core.Message
}

const (
	captureStride = 37
	captureMax    = 3000
)

func (t *trafficCounter) wrap(next func(time.Duration, overlay.NodeID, overlay.NodeID, *core.Message)) func(time.Duration, overlay.NodeID, overlay.NodeID, *core.Message) {
	return func(at time.Duration, from, to overlay.NodeID, m *core.Message) {
		if t.total.Add(1)%captureStride == 0 {
			t.mu.Lock()
			if len(t.sample) < captureMax {
				c := *m
				c.Peers = append([]overlay.NodeID(nil), m.Peers...)
				c.Dir = append([]byte(nil), m.Dir...)
				t.sample = append(t.sample, c)
			}
			t.mu.Unlock()
		}
		next(at, from, to, m)
	}
}

func childReplay(spec simSpec) (*simOut, error) {
	cfg, err := simConfig(spec.Workload, spec.Seed)
	if err != nil {
		return nil, err
	}
	o := &simOut{}
	var cpuFile, heapFile string
	if spec.Traced {
		// Finer heap sampling than the 512 KiB default, set before the
		// first allocation worth profiling.
		runtime.MemProfileRate = 64 << 10
		cpuFile = filepath.Join(spec.WorkDir, fmt.Sprintf("cpu-%d.pprof", os.Getpid()))
		heapFile = filepath.Join(spec.WorkDir, fmt.Sprintf("heap-%d.pprof", os.Getpid()))
		// overlay.Build as its own span, on an overlay of the size and
		// configuration Prepare builds internally, where the benchmark
		// cannot see.
		t0 := time.Now()
		if cfg.Topology == 0 || cfg.Topology == overlay.TopologyBlatant {
			if _, err := overlay.Build(cfg.Nodes, cfg.Overlay, rand.New(rand.NewSource(spec.Seed))); err != nil {
				return nil, err
			}
		}
		o.addSpan("overlay.Build", "overlay", t0)
		runtime.GC()
	}

	var counter *trafficCounter
	var ms0, ms1 runtime.MemStats
	var d *scenario.Deployment

	tSetup := time.Now()
	var cpuOut *os.File
	if spec.Traced {
		if cpuOut, err = os.Create(cpuFile); err != nil {
			return nil, err
		}
		defer cpuOut.Close() // error paths; the success path closes it below
		if err := pprof.StartCPUProfile(cpuOut); err != nil {
			return nil, err
		}
	}
	d, err = scenario.Prepare(cfg, spec.Replay)
	if err != nil {
		return nil, err
	}
	if spec.Traced {
		o.addSpan("scenario.Prepare", "scenario", tSetup)
		counter = &trafficCounter{}
		d.Cluster.SetTraffic(counter.wrap(d.Recorder.OnMessage))
	}
	tSched := time.Now()
	if err := schedule(spec, d); err != nil {
		return nil, err
	}
	if spec.Traced {
		o.addSpan("submissions", "scenario", tSched)
	}
	// Set-up ends when the first simulated event has run.
	d.Engine.RunAll(1)
	o.SetupSec = time.Since(tSetup).Seconds()
	if spec.SetupOnly {
		if spec.Traced {
			pprof.StopCPUProfile()
		}
		return o, nil
	}

	runtime.ReadMemStats(&ms0)
	cpu0, steal0 := selfCPU(), stealTicks()
	tRun := time.Now()
	if spec.Traced {
		// Finish in simulated-time slices, one span each.
		slice := cfg.Horizon / 12
		for at := slice; at < cfg.Horizon; at += slice {
			t0 := time.Now()
			d.Engine.Run(at)
			o.addSpan(fmt.Sprintf("Run@%v", at), "sim", t0)
		}
	}
	t0 := time.Now()
	res := d.Finish()
	if spec.Traced {
		o.addSpan("Finish", "sim", t0)
	}
	o.RunSec = time.Since(tRun).Seconds()
	o.CPUSec = (selfCPU() - cpu0).Seconds()
	o.StealSec = float64(stealTicks()-steal0) / clockTick
	runtime.ReadMemStats(&ms1)
	if spec.Traced {
		pprof.StopCPUProfile()
	}

	o.Events = d.Engine.Events()
	o.Submitted, o.Completed, o.Failed = res.Submitted, res.Completed, res.Failed
	o.Duplicates, o.Lost = res.DuplicateStarts, res.SubmissionsLost+res.Overload.SubmissionsShed
	o.CompletionMeanSec = res.AvgCompletion.Seconds()
	o.CompletionP50Sec = res.CompletionP50.Seconds()
	o.CompletionP95Sec = res.CompletionP95.Seconds()
	for t, tr := range res.Traffic {
		o.Msgs += tr.Count
		switch t {
		case core.MsgRequest:
			o.RequestMsgs = tr.Count
		case core.MsgInform:
			o.InformMsgs = tr.Count
		}
	}
	o.DirHits, o.DirMisses, o.DirFallbacks = res.Directory.Hits, res.Directory.Misses, res.Directory.Fallbacks
	o.DirEvictions = res.Directory.EvictionTotal()
	o.Fingerprint = fingerprint(res, o.Events)
	o.Mallocs = ms1.Mallocs - ms0.Mallocs
	o.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	o.GCCycles = ms1.NumGC - ms0.NumGC
	o.GCCPUFrac = ms1.GCCPUFraction
	if kb, err := procStatusKB(os.Getpid(), "VmHWM"); err == nil {
		o.PeakRSSMB = float64(kb) / 1024
	}

	if !spec.Traced {
		return o, nil
	}
	o.Counted = counter.total.Load()
	if err := cpuOut.Close(); err != nil {
		return nil, err
	}
	if err := writeHeapProfile(heapFile); err != nil {
		return nil, err
	}
	var perr error
	if o.CPUByLayer, perr = layerShares(cpuFile, "cpu", "bench"); perr != nil {
		return nil, perr
	}
	if o.AllocByLayer, perr = layerShares(heapFile, "alloc_space", "bench"); perr != nil {
		return nil, perr
	}

	// Layer microbenchmarks run on what this replay put on the wire, after the
	// deployment is released so its heap does not tax the timings.
	msgs := counter.sample
	d, res = nil, nil
	runtime.GC()
	if !hasDigests(msgs) {
		// This workload gossips no digests (directory plane off): feed
		// the directory microbenchmarks from a small iDirected capture instead.
		extra, err := captureMessages(spec.Seed)
		if err != nil {
			return nil, err
		}
		msgs = append(msgs, extra...)
	}
	o.Micro, err = runMicro(msgs, filepath.Join(spec.WorkDir, fmt.Sprintf("walmicro-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	return o, nil
}

// captureMessages runs a small iDirected replay with the counting wrapper
// and returns its message sample.
func captureMessages(seed int64) ([]core.Message, error) {
	cfg, err := simConfig("capture", seed)
	if err != nil {
		return nil, err
	}
	d, err := scenario.Prepare(cfg, 0)
	if err != nil {
		return nil, err
	}
	counter := &trafficCounter{}
	d.Cluster.SetTraffic(counter.wrap(d.Recorder.OnMessage))
	d.ScheduleSubmissions(scenario.ARiASubmit)
	d.Finish()
	return counter.sample, nil
}

func hasDigests(msgs []core.Message) bool {
	for _, m := range msgs {
		if len(m.Dir) > 0 {
			return true
		}
	}
	return false
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerShares reads a profile and returns each layer's share of the named
// sample column.
func layerShares(path, column, mainLayer string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	idx := p.sampleIndex(column)
	if idx < 0 {
		return nil, fmt.Errorf("%s: no %q samples", path, column)
	}
	by, total := p.selfByLayer(idx, mainLayer)
	out := map[string]float64{}
	for l, v := range by {
		out[l] = ratio(v, total)
	}
	return out, nil
}

// fingerprint hashes every simulated output a host-speed change must leave
// identical: counts, time statistics, per-type traffic, directory counters,
// the completion series and the executed event count.
func fingerprint(res *metrics.Result, events uint64) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d|", res.Submitted, res.Completed, res.Failed,
		res.Assignments, res.Reschedules, res.DuplicateStarts)
	fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d|%d|", res.AvgWaiting, res.AvgExecution, res.AvgCompletion,
		res.CompletionP50, res.CompletionP95, res.CompletionP99, res.CompletionMax)
	types := make([]int, 0, len(res.Traffic))
	for t := range res.Traffic {
		types = append(types, int(t))
	}
	sort.Ints(types)
	for _, t := range types {
		tr := res.Traffic[core.MsgType(t)]
		fmt.Fprintf(h, "%d:%d:%d|", t, tr.Count, tr.Bytes)
	}
	dir := res.Directory
	fmt.Fprintf(h, "%d|%d|%d|%d|", dir.Hits, dir.Probes, dir.Misses, dir.Fallbacks)
	for _, k := range sortedKeys(dir.Evictions) {
		fmt.Fprintf(h, "%s:%d|", k, dir.Evictions[k])
	}
	fmt.Fprintf(h, "%v|%v|%v|%d", res.Membership, res.Overload, res.CompletedSeries, events)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
