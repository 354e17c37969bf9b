package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"
)

// Host-speed reference. On a shared host the CPU time of the same work
// drifts by a fifth or more over minutes (cache, memory bandwidth and
// sibling-thread contention from other guests), far more than one run can
// average away. The benchmark therefore times a fixed reference workload
// in a fresh child process several times within each run, and scales its
// host-speed-bound metrics by the probe's nominal CPU over the median
// probe: they read in "reference" seconds, the time on a host where one
// probe takes its nominal CPU. The probe is benchmark code, not program
// code, so a program change moves a scaled metric by the same share as
// the raw one; the raw value and the probe time are printed beside it.
//
// Each workload has the probe whose cost tracks its own work best on a
// shared host:
//   - refMemory, for the simulator: random reads and writes on two threads,
//     each over a table larger than a guest's share of the last-level cache.
//   - refService, for the live daemons: arithmetic, small syscalls, framed
//     JSON over loopback TCP, and allocation with GC.
type refKind string

const (
	refMemory  refKind = "memory"
	refService refKind = "service"
)

// refNominalSec is about one idle probe's CPU, of either kind, on the
// 2-CPU shared Xeon guest the benchmark was tuned on.
const refNominalSec = 0.100

// refEvery spaces the live run's probes: about 4% of one CPU beside the
// grid.
const refEvery = 2500 * time.Millisecond

// Probe sizes. The counts are fixed; only the host decides how long they
// take.
const (
	refTableWords = 8 << 20 // 32 MB of uint32
	refMemSteps   = 500_000
	refALUIters   = 8_000_000
	refSyscalls   = 30_000
	refTCPRounds  = 1500
	refAllocs     = 200_000
)

var refSink uint64

// hostRefMain is the entry point of a probe child: it does the reference
// work of one kind and prints its own CPU seconds.
func hostRefMain(kind string) error {
	var (
		sec float64
		err error
	)
	switch refKind(kind) {
	case refMemory:
		sec = refMem()
	case refService:
		sec, err = refSvc()
	default:
		err = fmt.Errorf("unknown reference probe %q", kind)
	}
	if err != nil {
		return err
	}
	fmt.Println(strconv.FormatFloat(sec, 'g', -1, 64))
	return nil
}

// refMem walks a dependent random chain through a 32 MB table, updating
// as it goes, so nearly every step misses the cache; like a replay, it
// does so on two threads at once, each with its own table. Filling the
// tables is not timed.
func refMem() float64 {
	var tabs [2][]uint32
	for t := range tabs {
		tabs[t] = make([]uint32, refTableWords)
		for i := range tabs[t] {
			tabs[t][i] = uint32(i*2654435761) & (refTableWords - 1)
		}
	}
	c0 := selfCPU()
	var wg sync.WaitGroup
	var ends [2]uint32
	for t := range tabs {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			tab, x := tabs[t], uint32(1)
			for i := 0; i < refMemSteps/2; i++ {
				x = tab[x] ^ uint32(i)&7
				tab[(x*7)&(refTableWords-1)]++
				x &= refTableWords - 1
			}
			ends[t] = x
		}(t)
	}
	wg.Wait()
	refSink += uint64(ends[0] ^ ends[1])
	return (selfCPU() - c0).Seconds()
}

func refSvc() (float64, error) {
	c0 := selfCPU()
	h := uint64(1)
	for i := 0; i < refALUIters; i++ {
		h = h*6364136223846793005 + 1442695040888963407
		h ^= h >> 17
	}

	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		return 0, err
	}
	one := []byte{byte(h)}
	for i := 0; i < refSyscalls; i++ {
		if _, err := null.Write(one); err != nil {
			null.Close()
			return 0, err
		}
	}
	null.Close()

	if err := refTCP(); err != nil {
		return 0, err
	}

	var keep [][]byte
	for i := 0; i < refAllocs; i++ {
		b := make([]byte, 64+i%200)
		if i%50 == 0 {
			keep = append(keep, b)
		}
	}
	refSink += uint64(len(keep))
	return (selfCPU() - c0).Seconds(), nil
}

// refTCP echoes refTCPRounds newline-framed JSON messages over loopback.
func refTCP() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		r := bufio.NewReader(c)
		for {
			line, err := r.ReadBytes('\n')
			if err != nil {
				return
			}
			if _, err := c.Write(line); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	type msg struct {
		Kind string
		UUID string
		Seq  int
		Load []int
	}
	r := bufio.NewReader(c)
	for i := 0; i < refTCPRounds; i++ {
		out, _ := json.Marshal(msg{Kind: "REQUEST", UUID: "0123456789abcdef0123456789abcdef", Seq: i, Load: []int{1, 2, 3, 4, 5, 6, 7, 8}})
		if _, err := c.Write(append(out, '\n')); err != nil {
			c.Close()
			return err
		}
		line, err := r.ReadBytes('\n')
		if err != nil {
			c.Close()
			return err
		}
		var back msg
		if err := json.Unmarshal(line, &back); err != nil || back.Seq != i {
			c.Close()
			return fmt.Errorf("reference echo %d came back as %q", i, line)
		}
	}
	c.Close()
	wg.Wait()
	return nil
}

// hostRef runs one probe child and returns its CPU seconds. A service
// probe runs on one P, so its goroutine hand-offs cost the same every time.
func hostRef(kind refKind) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-hostref", string(kind))
	if kind == refService {
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	}
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = orphanGuard()
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("host reference probe: %w", err)
	}
	sec, err := strconv.ParseFloat(string(bytes.TrimSpace(out)), 64)
	if err != nil || sec <= 0 {
		return 0, fmt.Errorf("host reference probe printed %q", out)
	}
	return sec, nil
}

// hostRefs collects probe times over a run.
type hostRefs struct {
	kind refKind
	mu   sync.Mutex
	secs []float64
	err  error
	stop chan struct{}
	done sync.WaitGroup
}

// probe runs n probes now, one after another.
func (h *hostRefs) probe(n int) {
	for i := 0; i < n; i++ {
		sec, err := hostRef(h.kind)
		h.mu.Lock()
		if err != nil && h.err == nil {
			h.err = err
		}
		if err == nil {
			h.secs = append(h.secs, sec)
		}
		h.mu.Unlock()
	}
}

// every probes once per period in the background until halt.
func (h *hostRefs) every(period time.Duration) {
	h.stop = make(chan struct{})
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.probe(1)
			}
		}
	}()
}

// halt stops background probing and waits for a probe in flight.
func (h *hostRefs) halt() {
	if h.stop != nil {
		close(h.stop)
		h.done.Wait()
		h.stop = nil
	}
}

// factor is refNominalSec over the median probe: multiply a host CPU time
// by it to read it in reference seconds.
func (h *hostRefs) factor() (float64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.err != nil {
		return 0, h.err
	}
	if len(h.secs) == 0 {
		return 0, fmt.Errorf("no host reference probe ran")
	}
	return refNominalSec / median(h.secs), nil
}

// report records the probe time beside the scaled metrics.
func (h *hostRefs) report(r *result, scaled string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	r.context["host_ref"] = string(h.kind)
	r.set("host.ref_probe_ms", 1000*median(h.secs), len(h.secs), fmt.Sprintf("CPU of the %s reference probe, median; %s scaled by %g ms over it", h.kind, scaled, 1000*refNominalSec))
}
