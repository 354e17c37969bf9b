// Livegrid: the ARiA protocol running in real time — eight concurrent
// nodes exchanging messages through the in-process transport (goroutines,
// wall-clock timers), with every lifecycle event logged as it happens.
// A late-joining fast node demonstrates live dynamic rescheduling.
//
//	go run ./examples/livegrid
package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
	"github.com/smartgrid/aria/internal/sched"
	"github.com/smartgrid/aria/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "livegrid:", err)
		os.Exit(1)
	}
}

func run() error {
	// Wall-clock protocol timings: decisions in 150 ms, INFORM every
	// 400 ms, reschedule for any improvement above 10 ms.
	cfg := core.DefaultConfig()
	cfg.AcceptTimeout = 150 * time.Millisecond
	cfg.InformInterval = 400 * time.Millisecond
	cfg.RescheduleThreshold = 10 * time.Millisecond

	cluster := transport.NewInprocCluster(7, overlay.FixedLatency(2*time.Millisecond))
	defer cluster.Close()

	obs := &printer{start: time.Now()}
	art := job.ARTModel{Mode: job.DriftSymmetric, Epsilon: 0.1}

	// Eight slow-ish nodes in a ring with chords.
	profile := resource.Profile{
		Arch: resource.ArchAMD64, OS: resource.OSLinux,
		MemoryGB: 8, DiskGB: 8, PerfIndex: 1.1,
	}
	const n = 8
	for i := overlay.NodeID(0); i < n; i++ {
		if _, err := cluster.AddNode(i, profile, sched.FCFS, cfg, obs, art); err != nil {
			return err
		}
	}
	for i := overlay.NodeID(0); i < n; i++ {
		if err := cluster.Connect(i, (i+1)%n); err != nil {
			return err
		}
		if err := cluster.Connect(i, (i+3)%n); err != nil {
			return err
		}
	}
	cluster.StartAll()

	// Burst of 12 one-second jobs through node 0: queues build up.
	rng := rand.New(rand.NewSource(99))
	node0, _ := cluster.Node(0)
	var uuids []job.UUID
	for i := 0; i < 12; i++ {
		p := job.Profile{
			UUID: job.NewUUID(rng),
			Req: resource.Requirements{
				Arch: resource.ArchAMD64, OS: resource.OSLinux,
				MinMemoryGB: 1, MinDiskGB: 1,
			},
			ERT:   time.Second,
			Class: job.ClassBatch,
		}
		uuids = append(uuids, p.UUID)
		if err := node0.Submit(p); err != nil {
			return err
		}
	}

	// After one second a much faster node joins live; INFORM floods will
	// reschedule queued jobs onto it.
	time.Sleep(time.Second)
	fast := profile
	fast.PerfIndex = 1.9
	fmt.Println("--- fast node 8 joins the grid ---")
	late, err := cluster.AddNode(8, fast, sched.FCFS, cfg, obs, art)
	if err != nil {
		return err
	}
	for _, nb := range []overlay.NodeID{0, 3, 6} {
		if err := cluster.Connect(8, nb); err != nil {
			return err
		}
	}
	late.Start()

	// Wait for the whole burst to finish (generously bounded).
	deadline := time.After(60 * time.Second)
	for {
		if obs.completedCount() == len(uuids) {
			break
		}
		select {
		case <-deadline:
			return fmt.Errorf("jobs incomplete after 60s: %d of %d",
				obs.completedCount(), len(uuids))
		case <-time.After(50 * time.Millisecond):
		}
	}
	fmt.Printf("all %d jobs done; %d were live-rescheduled\n",
		len(uuids), obs.rescheduleCount())
	return nil
}

// printer logs protocol events with wall-clock offsets.
type printer struct {
	start time.Time

	mu          sync.Mutex
	completed   int
	reschedules int
}

func (p *printer) stamp() string {
	return time.Since(p.start).Round(time.Millisecond).String()
}

// Observe implements core.Observer: it prints the lifecycle steps and skips
// the rest of the event stream (floods, offers, probes).
func (p *printer) Observe(ev core.Event) {
	switch ev.Kind {
	case core.SpanAssign:
		fmt.Printf("[%8s] job %s assigned %v -> %v\n", p.stamp(), ev.UUID.Short(), ev.Node, ev.Peer)
	case core.SpanReschedule:
		p.mu.Lock()
		p.reschedules++
		p.mu.Unlock()
		fmt.Printf("[%8s] job %s RESCHEDULED %v -> %v\n", p.stamp(), ev.UUID.Short(), ev.Node, ev.Peer)
	case core.SpanStart:
		fmt.Printf("[%8s] job %s started on %v\n", p.stamp(), ev.UUID.Short(), ev.Node)
	case core.SpanComplete:
		p.mu.Lock()
		p.completed++
		p.mu.Unlock()
		fmt.Printf("[%8s] job %s completed on %v\n", p.stamp(), ev.UUID.Short(), ev.Node)
	}
}

func (p *printer) completedCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.completed
}

func (p *printer) rescheduleCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reschedules
}
