package core_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/sched"
	"github.com/smartgrid/aria/internal/sim"
	"github.com/smartgrid/aria/internal/transport"
)

// dirRecorder extends the lifecycle recorder with span and directory event
// capture, so tests can assert on the shape of discovery rounds.
type dirRecorder struct {
	*recorder

	dmu       sync.Mutex
	spans     []core.Event
	hits      int
	probes    int
	misses    int
	fallbacks int
	evictions map[string]int
}

func newDirRecorder() *dirRecorder {
	return &dirRecorder{recorder: newRecorder(), evictions: make(map[string]int)}
}

func (r *dirRecorder) Observe(ev core.Event) {
	r.recorder.Observe(ev)
	r.dmu.Lock()
	defer r.dmu.Unlock()
	if ev.Span != 0 {
		r.spans = append(r.spans, ev)
	}
	switch ev.Kind {
	case core.SpanDirectedProbe:
		r.hits++
		r.probes += ev.Fanout
	case core.KindDirectoryMiss:
		r.misses++
	case core.SpanDirectoryFallback:
		r.fallbacks++
	case core.KindDirectoryEvicted:
		r.evictions[ev.Reason]++
	}
}

// jobSpans returns the recorded spans of the given kind for one job.
func (r *dirRecorder) jobSpans(uuid job.UUID, kind core.Kind) []core.Event {
	r.dmu.Lock()
	defer r.dmu.Unlock()
	var out []core.Event
	for _, ev := range r.spans {
		if ev.UUID == uuid && ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// directedConfig arms membership (gossip carrier) and the directory plane
// with tight timers suited to a small fully connected test cluster.
func directedConfig() core.Config {
	cfg := noRescheduling(core.DefaultConfig())
	cfg.ProbeInterval = time.Second
	cfg.ProbeTimeout = 500 * time.Millisecond
	cfg.SuspectTimeout = time.Second
	cfg.DirectedCandidates = 2
	cfg.MinDirectedOffers = 1
	cfg.DirectoryCapacity = core.DefaultDirectoryCapacity
	cfg.DirectoryTTL = core.DefaultDirectoryTTL
	cfg.DirectoryGossip = core.DefaultDirectoryGossip
	return cfg
}

// newDirectedFixture mirrors newFixture but wires the trace- and
// directory-aware recorder into every node.
func newDirectedFixture(t *testing.T, cfg core.Config, specs []nodeSpec) (*fixture, *dirRecorder) {
	t.Helper()
	engine := sim.NewEngine(7)
	graph := overlay.NewGraph()
	for i := range specs {
		graph.AddNode(overlay.NodeID(i))
	}
	for i := 0; i < len(specs); i++ {
		for k := i + 1; k < len(specs); k++ {
			graph.AddLink(overlay.NodeID(i), overlay.NodeID(k))
		}
	}
	cluster := transport.NewSimCluster(engine, graph, overlay.FixedLatency(10*time.Millisecond))
	rec := newDirRecorder()
	for i, spec := range specs {
		art := job.ARTModel{Mode: job.DriftNone}
		if _, err := cluster.AddNode(overlay.NodeID(i), spec.profile, spec.policy, cfg, rec, art); err != nil {
			t.Fatalf("AddNode(%d): %v", i, err)
		}
	}
	cluster.StartAll()
	f := &fixture{engine: engine, cluster: cluster, rec: rec.recorder, rng: rand.New(rand.NewSource(42))}
	return f, rec
}

// After gossip has spread profiles, a fresh submission goes directed: TTL-0
// probes within the candidate budget, an assignment to an offering node, and
// no REQUEST flood at all.
func TestDirectedRoundSkipsFlood(t *testing.T) {
	cfg := directedConfig()
	f, rec := newDirectedFixture(t, cfg, []nodeSpec{
		{powerNode(1.0), sched.FCFS}, // initiator: cannot host its own job
		{amd64Node(1.5), sched.FCFS},
		{amd64Node(1.2), sched.FCFS},
		{amd64Node(1.1), sched.FCFS},
	})
	const warmup = 30 * time.Second
	f.engine.Run(warmup)
	p := amd64Job(f.rng, time.Hour)
	if err := f.node(t, 0).Submit(p); err != nil {
		t.Fatal(err)
	}
	f.engine.Run(warmup + 6*time.Hour)

	if _, ok := f.rec.completed[p.UUID]; !ok {
		t.Fatalf("job never completed; failed=%v", f.rec.failed)
	}
	probes := rec.jobSpans(p.UUID, core.SpanDirectedProbe)
	if len(probes) != 1 {
		t.Fatalf("directed probe spans = %d, want 1", len(probes))
	}
	if got := probes[0].Fanout; got < 1 || got > cfg.DirectedCandidates {
		t.Fatalf("directed round probed %d nodes, want 1..%d", got, cfg.DirectedCandidates)
	}
	if floods := rec.jobSpans(p.UUID, core.SpanFloodOrigin); len(floods) != 0 {
		t.Fatalf("directed round still flooded: %d flood origins", len(floods))
	}
	if fallbacks := rec.jobSpans(p.UUID, core.SpanDirectoryFallback); len(fallbacks) != 0 {
		t.Fatalf("satisfied directed round fell back %d times", len(fallbacks))
	}
	rec.dmu.Lock()
	hits, misses := rec.hits, rec.misses
	rec.dmu.Unlock()
	if hits != 1 || misses != 0 {
		t.Fatalf("directory hits=%d misses=%d, want 1/0", hits, misses)
	}
}

// Cached digests carry no scheduler class, so a directed round can probe
// nodes that will never answer; the round must starve into the classic flood
// (budget untouched) and the job must still land on the real candidate.
func TestDirectedStarvationFallsBackToFlood(t *testing.T) {
	cfg := directedConfig()
	f, rec := newDirectedFixture(t, cfg, []nodeSpec{
		{amd64Node(1.0), sched.FCFS}, // initiator: hosts its own job after the fallback
		{amd64Node(1.9), sched.EDF},  // satisfies the digest, ignores batch jobs
		{amd64Node(1.8), sched.EDF},  // satisfies the digest, ignores batch jobs
		{powerNode(1.5), sched.FCFS}, // never cached as a candidate: wrong arch
	})
	const warmup = 30 * time.Second
	f.engine.Run(warmup)
	p := amd64Job(f.rng, time.Hour)
	if err := f.node(t, 0).Submit(p); err != nil {
		t.Fatal(err)
	}
	f.engine.Run(warmup + 6*time.Hour)

	if _, ok := f.rec.completed[p.UUID]; !ok {
		t.Fatalf("job never completed; failed=%v", f.rec.failed)
	}
	// A self offer never satisfies MinDirectedOffers (it proves nothing
	// about the cache), so both probes went to the silent EDF nodes, the
	// round starved, and the flood's self-assignment won.
	if got := f.rec.completedOn[p.UUID]; got != 0 {
		t.Fatalf("job ran on %v, want the initiator 0", got)
	}
	probes := rec.jobSpans(p.UUID, core.SpanDirectedProbe)
	if len(probes) != 1 || probes[0].Fanout != cfg.DirectedCandidates {
		t.Fatalf("probe spans %+v, want one probing %d nodes", probes, cfg.DirectedCandidates)
	}
	fallbacks := rec.jobSpans(p.UUID, core.SpanDirectoryFallback)
	if len(fallbacks) != 1 {
		t.Fatalf("fallback spans = %d, want 1", len(fallbacks))
	}
	if fallbacks[0].Parent != probes[0].Span {
		t.Fatalf("fallback parented to span %d, want the probe span %d", fallbacks[0].Parent, probes[0].Span)
	}
	if floods := rec.jobSpans(p.UUID, core.SpanFloodOrigin); len(floods) == 0 {
		t.Fatal("starved directed round never flooded")
	}
	rec.dmu.Lock()
	fb := rec.fallbacks
	rec.dmu.Unlock()
	if fb != 1 {
		t.Fatalf("fallback observer count = %d, want 1", fb)
	}
}

// A peer confirmed dead is invalidated from the directory, so a later
// submission whose only cached match was the corpse records a miss and goes
// straight to the flood — a directed probe at a corpse would be a wasted
// AcceptTimeout.
func TestDeadCandidateIsNeverProbed(t *testing.T) {
	cfg := directedConfig()
	cfg.MaxRequestRetries = 1
	cfg.RetryBackoff = time.Minute
	f, rec := newDirectedFixture(t, cfg, []nodeSpec{
		{powerNode(1.0), sched.FCFS}, // initiator: cannot host its own job
		{amd64Node(1.5), sched.FCFS}, // the only match — about to die
		{powerNode(1.2), sched.FCFS},
	})
	const warmup = 30 * time.Second
	f.engine.Run(warmup)
	f.node(t, 1).Kill()
	// Probe interval 1 s + timeouts 0.5 s/1 s: the dead verdict lands well
	// within a few intervals.
	f.engine.Run(warmup + 15*time.Second)

	p := amd64Job(f.rng, time.Hour)
	if err := f.node(t, 0).Submit(p); err != nil {
		t.Fatal(err)
	}
	f.engine.Run(warmup + 15*time.Second + time.Hour)

	if _, ok := f.rec.completed[p.UUID]; ok {
		t.Fatal("job completed with its only candidate dead")
	}
	if probes := rec.jobSpans(p.UUID, core.SpanDirectedProbe); len(probes) != 0 {
		t.Fatalf("probed a dead candidate: %+v", probes)
	}
	if floods := rec.jobSpans(p.UUID, core.SpanFloodOrigin); len(floods) == 0 {
		t.Fatal("discovery never flooded after the directory miss")
	}
	rec.dmu.Lock()
	misses, dead := rec.misses, rec.evictions["dead"]
	rec.dmu.Unlock()
	if misses == 0 {
		t.Fatal("no directory miss recorded")
	}
	if dead == 0 {
		t.Fatal("dead verdict never evicted the corpse's digest")
	}
}
