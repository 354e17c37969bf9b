package core_test

import (
	"math/rand"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
	"github.com/smartgrid/aria/internal/sched"
	"github.com/smartgrid/aria/internal/sim"
	"github.com/smartgrid/aria/internal/transport"
)

// countingObserver counts lifecycle events per job for invariant checks.
type countingObserver struct {
	starts      map[job.UUID]int
	completions map[job.UUID]int
	failures    map[job.UUID]int
}

func newCountingObserver() *countingObserver {
	return &countingObserver{
		starts:      make(map[job.UUID]int),
		completions: make(map[job.UUID]int),
		failures:    make(map[job.UUID]int),
	}
}

func (o *countingObserver) Observe(ev core.Event) {
	switch ev.Kind {
	case core.SpanStart:
		o.starts[ev.UUID]++
	case core.SpanComplete:
		o.completions[ev.UUID]++
	case core.SpanFail:
		o.failures[ev.UUID]++
	}
}

// TestInvariantExactlyOnceExecution drives a dense random workload through
// a rescheduling-heavy grid and asserts the protocol's safety property:
// without failures, every submitted job starts exactly once and completes
// exactly once — rescheduling never duplicates or loses work.
func TestInvariantExactlyOnceExecution(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		cfg := core.DefaultConfig()
		cfg.InformInterval = 2 * time.Minute // rescheduling pressure
		cfg.RescheduleThreshold = time.Minute

		engine := sim.NewEngine(seed)
		rng := rand.New(rand.NewSource(seed))
		builder, err := overlay.Build(40, overlay.DefaultBlatantConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		cluster := transport.NewSimCluster(engine, builder.Graph(), overlay.DefaultLatency(uint64(seed)))
		obs := newCountingObserver()
		sampler := resource.NewSampler(rng)
		var profiles []resource.Profile
		for _, id := range builder.Graph().Nodes() {
			p := sampler.Profile()
			profiles = append(profiles, p)
			policy := sched.FCFS
			if rng.Intn(2) == 0 {
				policy = sched.SJF
			}
			if _, err := cluster.AddNode(id, p, policy, cfg, obs, job.DefaultARTModel()); err != nil {
				t.Fatal(err)
			}
		}
		cluster.StartAll()

		submitted := make(map[job.UUID]bool)
		nodes := cluster.Nodes()
		for i := 0; i < 120; i++ {
			req := sampler.Requirements()
			// Keep every job satisfiable so none legitimately fails.
			for {
				ok := false
				for _, p := range profiles {
					if p.Satisfies(req) {
						ok = true
						break
					}
				}
				if ok {
					break
				}
				req = sampler.Requirements()
			}
			p := job.Profile{
				UUID:  job.NewUUID(rng),
				Req:   req,
				ERT:   time.Duration(rng.Intn(180)+60) * time.Minute,
				Class: job.ClassBatch,
			}
			submitted[p.UUID] = true
			target := nodes[rng.Intn(len(nodes))]
			at := time.Duration(i) * 20 * time.Second
			engine.ScheduleAt(at, func() {
				if err := target.Submit(p); err != nil {
					t.Errorf("submit: %v", err)
				}
			})
		}
		engine.Run(72 * time.Hour)

		for uuid := range submitted {
			if got := obs.starts[uuid]; got != 1 {
				t.Fatalf("seed %d: job %s started %d times, want exactly 1", seed, uuid.Short(), got)
			}
			if got := obs.completions[uuid]; got != 1 {
				t.Fatalf("seed %d: job %s completed %d times, want exactly 1", seed, uuid.Short(), got)
			}
			if obs.failures[uuid] != 0 {
				t.Fatalf("seed %d: job %s failed despite satisfiable requirements", seed, uuid.Short())
			}
		}
	}
}

// TestNodeAccessors covers the trivial read-side API.
func TestNodeAccessors(t *testing.T) {
	cfg := noRescheduling(core.DefaultConfig())
	f := newFixture(t, cfg, []nodeSpec{{amd64Node(1.3), sched.SJF}, {amd64Node(1.0), sched.FCFS}})
	n := f.node(t, 0)
	if n.ID() != 0 {
		t.Fatalf("ID() = %v", n.ID())
	}
	if n.Policy() != sched.SJF {
		t.Fatalf("Policy() = %v", n.Policy())
	}
	if n.Profile().PerfIndex != 1.3 {
		t.Fatalf("Profile() = %v", n.Profile())
	}
}

func TestOfferAPI(t *testing.T) {
	cfg := noRescheduling(core.DefaultConfig())
	f := newFixture(t, cfg, []nodeSpec{{amd64Node(2 - 1e-9), sched.FCFS}, {powerNode(1.0), sched.FCFS}})
	p := amd64Job(f.rng, time.Hour)
	cost, ok := f.node(t, 0).Offer(p)
	if !ok {
		t.Fatal("matching node refused to offer")
	}
	want := sched.Cost(time.Hour.Seconds() / (2 - 1e-9))
	if diff := float64(cost - want); diff > 1 || diff < -1 {
		t.Fatalf("offer cost %v, want ≈%v", cost, want)
	}
	if _, ok := f.node(t, 1).Offer(p); ok {
		t.Fatal("non-matching node offered")
	}
	n := f.node(t, 0)
	n.Kill()
	if _, ok := n.Offer(p); ok {
		t.Fatal("dead node offered")
	}
}

func TestStopHaltsInforming(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.InformInterval = time.Minute
	f := newFixture(t, cfg, []nodeSpec{
		{amd64Node(1.0), sched.FCFS},
		{powerNode(1.0), sched.FCFS},
	})
	// Load node 0 with queued work so it has something to advertise.
	for i := 0; i < 4; i++ {
		if err := f.node(t, 0).Submit(amd64Job(f.rng, 2*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	informs := 0
	f.cluster.SetTraffic(func(_ time.Duration, _, _ overlay.NodeID, m *core.Message) {
		if m.Type == core.MsgInform {
			informs++
		}
	})
	f.engine.Run(10 * time.Minute)
	if informs == 0 {
		t.Fatal("no INFORM traffic before Stop")
	}
	f.node(t, 0).Stop()
	f.node(t, 1).Stop()
	before := informs
	f.engine.Run(time.Hour)
	if informs != before {
		t.Fatalf("INFORM traffic continued after Stop: %d -> %d", before, informs)
	}
}

// TestSeenTableSweep floods enough distinct waves through one node to
// trigger the dedup table sweep and checks the table stays bounded.
func TestSeenTableSweep(t *testing.T) {
	cfg := noRescheduling(core.DefaultConfig())
	cfg.AcceptTimeout = 50 * time.Millisecond
	cfg.MaxRequestRetries = 0
	f := newFixture(t, cfg, []nodeSpec{
		{powerNode(1.0), sched.FCFS},
		{powerNode(1.0), sched.FCFS},
		{powerNode(1.0), sched.FCFS},
	})
	// 5000 unmatchable jobs → 5000 REQUEST waves passing through every
	// node, exceeding the sweep threshold; waves expire after seenTTL.
	for i := 0; i < 5000; i++ {
		at := time.Duration(i) * 250 * time.Millisecond
		p := amd64Job(f.rng, time.Hour)
		f.engine.ScheduleAt(at, func() {
			_ = f.node(t, 0).Submit(p)
		})
	}
	f.engine.Run(30 * time.Minute)
	// The protocol must still work afterwards.
	if !f.node(t, 1).Idle() {
		t.Fatal("bystander node not idle")
	}
}

func TestWatchdogGivesUpAfterResubmissionLimit(t *testing.T) {
	cfg := noRescheduling(core.DefaultConfig())
	cfg.NotifyInitiator = true
	cfg.WatchdogGrace = 2
	cfg.MaxRequestRetries = 1
	cfg.RetryBackoff = time.Minute
	f := newFixture(t, cfg, []nodeSpec{
		{powerNode(1.0), sched.FCFS}, // initiator, never matches
		{amd64Node(1.0), sched.FCFS}, // only match
	})
	p := amd64Job(f.rng, time.Hour)
	if err := f.node(t, 0).Submit(p); err != nil {
		t.Fatal(err)
	}
	f.engine.Run(5 * time.Minute)
	// Kill the only capable node: the watchdog will retry (discovery now
	// finds nothing, retries once, pends again via watchdog), and after
	// the resubmission budget the job must fail, not loop forever.
	f.node(t, 1).Kill()
	f.engine.Run(200 * time.Hour)
	if _, ok := f.rec.completed[p.UUID]; ok {
		t.Fatal("job completed on a dead grid")
	}
	if len(f.rec.failed) == 0 {
		t.Fatal("watchdog never gave up")
	}
}
