package scenario

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/faults"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/metrics"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/resource"
	"github.com/smartgrid/aria/internal/sim"
	"github.com/smartgrid/aria/internal/trace"
	"github.com/smartgrid/aria/internal/transport"
	"github.com/smartgrid/aria/internal/workload"
)

// runSeed derives the seed of one repetition from the scenario identity, so
// every scenario/run pair is reproducible in isolation.
func runSeed(c Config, run int) int64 {
	h := fnv.New64a()
	_, _ = fmt.Fprintf(h, "%s/%d/%d", c.Name, c.Seed, run)
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// Deployment is a fully wired scenario instance: overlay, cluster, metrics,
// workload generator, expansion plan, and idle sampling — everything except
// the submission policy, which the caller chooses (ARiA protocol submission
// or one of the baseline meta-schedulers).
type Deployment struct {
	Config   Config
	Seed     int64
	Engine   sim.Kernel
	Cluster  *transport.SimCluster
	Recorder *metrics.Recorder
	Builder  *overlay.Blatant
	Gen      *workload.JobGen

	// Faults is the installed link fault model, nil on clean runs.
	Faults *faults.LinkModel

	// Trace is the retained trace-plane event stream; nil unless
	// Config.Trace is set.
	Trace *trace.Collector

	// Profiles holds the hardware profile of every initial node, in
	// graph node order (useful for satisfiability-constrained external
	// workloads such as trace replays).
	Profiles []resource.Profile

	subRng *rand.Rand
}

// SubmitFunc injects one job into the deployment at its submission instant.
type SubmitFunc func(d *Deployment, at time.Duration, p job.Profile)

// ARiASubmit is the paper's submission model: the job lands on a uniformly
// random node, which becomes its ARiA initiator. Under churn, users would
// retry a dead portal, and under admission control a bounced portal; a
// handful of redraws models that.
func ARiASubmit(d *Deployment, _ time.Duration, p job.Profile) {
	var err error
	for tries := 0; tries < 10; tries++ {
		target := d.RandomNode()
		if !target.Alive() {
			err = fmt.Errorf("node %v is dead", target.ID())
			continue
		}
		if err = target.Submit(p); err == nil {
			return
		}
		if !errors.Is(err, core.ErrOverloaded) {
			break
		}
	}
	switch {
	case errors.Is(err, core.ErrOverloaded):
		// Every redrawn portal pushed back: admission control shed the
		// submission before it entered the protocol.
		d.Recorder.SubmissionShed()
	case d.Config.Churn != nil:
		// Every redraw hit a corpse: the submission is lost. Record it
		// so completion counts can be reconciled against submissions.
		d.Recorder.SubmissionLost()
	default:
		// Without churn or admission control a submission can never fail;
		// an error here is a harness bug.
		panic(fmt.Sprintf("scenario %s: submit: %v", d.Config.Name, err))
	}
}

// Prepare builds a deployment for one repetition: overlay, nodes, workload
// generator, expansion events, and idle sampling are all armed; submissions
// are not yet scheduled.
func Prepare(c Config, run int) (*Deployment, error) {
	return prepare(c, run)
}

// prepare is Prepare with extra observers attached to every node next to the
// recorder (the output-pin test records event logs through it).
func prepare(c Config, run int, sinks ...core.Observer) (*Deployment, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	seed := runSeed(c, run)
	setupRng := rand.New(rand.NewSource(seed))

	var (
		builder *overlay.Blatant
		graph   *overlay.Graph
		err     error
	)
	if c.Topology == 0 || c.Topology == overlay.TopologyBlatant {
		builder, err = overlay.Build(c.Nodes, c.Overlay, setupRng)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", c.Name, err)
		}
		graph = builder.Graph()
	} else {
		meanDegree := c.TopologyMeanDegree
		if meanDegree == 0 {
			meanDegree = 4
		}
		graph, err = overlay.BuildTopology(c.Topology, c.Nodes, meanDegree, c.Overlay, setupRng)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", c.Name, err)
		}
	}

	var latency overlay.LatencyModel = overlay.DefaultLatency(uint64(seed))
	var sites *overlay.SiteLatency
	if c.Sites > 0 {
		sites, err = overlay.NewSiteLatency(c.Sites, uint64(seed))
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", c.Name, err)
		}
		latency = sites
	}
	var engine sim.Kernel = sim.NewEngine(seed + 1)
	if c.Shards > 0 {
		// Epoch windows sized to the latency floor keep cross-lane
		// delivery times exact; site-based shard assignment keeps
		// LAN-adjacent lanes on one heap (locality only — event order
		// is lane-defined and shard-independent).
		opts := sim.ShardedOptions{
			Shards:         c.Shards,
			LanePendingCap: c.ShardCap,
			EventLog:       c.ShardLog,
		}
		if m, ok := latency.(overlay.MinDelayer); ok {
			opts.Epoch = m.MinDelay()
		}
		if sites != nil {
			shards := c.Shards
			opts.Assign = func(l sim.Lane) int {
				return sites.Site(overlay.NodeID(l)) % shards
			}
		}
		engine = sim.NewSharded(seed+1, opts)
	}
	cluster := transport.NewSimCluster(engine, graph, latency)
	if c.Journal {
		cluster.EnableJournaling()
	}
	rec := metrics.NewRecorder()
	cluster.SetTraffic(rec.OnMessage)

	// The recorder always counts span events per kind (cheap); retaining
	// the full stream for causal trees and invariant checking is opt-in.
	// A lone recorder goes in bare: a fan-out costs a copy per event.
	var obs core.Observer = rec
	var collector *trace.Collector
	if c.Trace {
		collector = trace.NewCollector()
		sinks = append(sinks, collector)
	}
	if len(sinks) > 0 {
		obs = append(core.Observers{rec}, sinks...)
	}

	sampler := resource.NewSampler(setupRng)
	var hostProfiles []resource.Profile
	for _, id := range graph.Nodes() {
		profile := sampler.Profile()
		policy := c.Policies[setupRng.Intn(len(c.Policies))]
		if _, err := cluster.AddNode(id, profile, policy, c.Protocol, obs, c.ART); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", c.Name, err)
		}
		hostProfiles = append(hostProfiles, profile)
	}
	cluster.StartAll()

	gen, err := workload.NewJobGen(rand.New(rand.NewSource(seed+2)), c.Class)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", c.Name, err)
	}
	if c.Class == job.ClassDeadline && c.DeadlineSlack > 0 {
		gen.DeadlineSlack = c.DeadlineSlack
	}
	if c.EnsureSatisfiable {
		gen.Hosts = hostProfiles
	}
	gen.ReservationFraction = c.ReservationFraction
	gen.ReservationLead = c.ReservationLead

	d := &Deployment{
		Config:   c,
		Seed:     seed,
		Engine:   engine,
		Cluster:  cluster,
		Recorder: rec,
		Builder:  builder,
		Gen:      gen,
		Profiles: hostProfiles,
		Trace:    collector,
		subRng:   rand.New(rand.NewSource(seed + 3)),
	}

	// Link fault plane. All fault draws come from a dedicated seeded
	// source (seed+4) so a faulty run stays bit-reproducible and fault
	// draws never perturb the other random streams.
	if f := c.Faults; f != nil {
		fcfg := faults.Config{
			DropProb:      f.DropProb,
			DupProb:       f.DupProb,
			MaxExtraDelay: f.MaxExtraDelay,
		}
		// Each window type draws its own shuffled node subset from the
		// setup stream, so adding a window never reshuffles another's.
		drawSubset := func(fraction float64) []overlay.NodeID {
			ids := append([]overlay.NodeID(nil), graph.Nodes()...)
			setupRng.Shuffle(len(ids), func(i, k int) { ids[i], ids[k] = ids[k], ids[i] })
			cut := int(float64(len(ids)) * fraction)
			if cut < 1 {
				cut = 1
			}
			return ids[:cut]
		}
		if p := f.Partition; p != nil {
			fcfg.Partitions = []faults.Partition{{
				Start:    p.Start,
				End:      p.Start + p.Duration,
				Isolated: drawSubset(p.Fraction),
				OneWay:   p.OneWay,
			}}
		}
		if s := f.Slowdown; s != nil {
			fcfg.Slowdowns = []faults.Slowdown{{
				Start:      s.Start,
				End:        s.Start + s.Duration,
				Nodes:      drawSubset(s.Fraction),
				ExtraDelay: s.ExtraDelay,
			}}
		}
		if s := f.Stall; s != nil {
			fcfg.Stalls = []faults.Stall{{
				Start: s.Start,
				End:   s.Start + s.Duration,
				Nodes: drawSubset(s.Fraction),
			}}
		}
		lm, err := faults.NewLinkModel(fcfg, rand.New(rand.NewSource(seed+4)))
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", c.Name, err)
		}
		// The sharded kernel's transport draws keyed (order-independent)
		// fault outcomes from this seed instead of the sequential source.
		lm.SetKeySeed(uint64(seed + 4))
		cluster.SetFaults(lm)
		d.Faults = lm
	}

	// Overlay expansion.
	if e := c.Expanding; e != nil {
		for k := 0; k < e.ExtraNodes; k++ {
			at := e.Start + time.Duration(k)*e.Interval
			engine.ScheduleAt(at, func() {
				id := builder.Join()
				profile := sampler.Profile()
				policy := c.Policies[setupRng.Intn(len(c.Policies))]
				n, err := cluster.AddNode(id, profile, policy, c.Protocol, obs, c.ART)
				if err != nil {
					panic(fmt.Sprintf("scenario %s: join: %v", c.Name, err))
				}
				n.Start()
				// Let the swarm manager keep the growing topology
				// within its envelope.
				builder.Round()
			})
		}
	}

	// Node-failure injection.
	if ch := c.Churn; ch != nil {
		for k := 0; k < ch.Kills; k++ {
			at := ch.Start + time.Duration(k)*ch.Interval
			engine.ScheduleAt(at, func() {
				nodes := cluster.Nodes()
				// Kill a uniformly random still-alive node; the swarm
				// manager heals the overlay around the corpse.
				for tries := 0; tries < 20; tries++ {
					victim := nodes[engine.Rand().Intn(len(nodes))]
					if !victim.Alive() {
						continue
					}
					victim.Kill()
					if !ch.LeaveCorpses {
						graph.RemoveNode(victim.ID())
						if builder != nil {
							builder.Round()
						}
					}
					if ch.Restart > 0 {
						// Fail-recover: the node reboots after the restart
						// delay — journaled nodes replay their WAL, bare
						// ones come back amnesiac. The restart is counted
						// in both variants so report extension G compares
						// like with like.
						vid := victim.ID()
						engine.Schedule(ch.Restart, func() {
							if !graph.HasNode(vid) {
								return // excised while down
							}
							if _, err := cluster.Restart(vid); err != nil {
								panic(fmt.Sprintf("scenario %s: restart %v: %v", c.Name, vid, err))
							}
							rec.NodeRestarted()
						})
					}
					return
				}
			})
		}
	}

	// Runtime overlay self-maintenance (BLATANT-S runs its ants
	// continuously; a periodic round keeps the topology within its
	// envelope as the network evolves).
	if c.MaintenanceInterval > 0 && builder != nil {
		sim.NewTicker(engine, c.MaintenanceInterval, 0, func() {
			builder.Round()
		})
	}

	// Idle-node sampling at the reporting cadence.
	sim.NewTicker(engine, c.SampleInterval, 0, func() {
		rec.AddIdleSample(engine.Now(), cluster.IdleCount(), graph.NumNodes())
	})

	return d, nil
}

// RandomNode draws a uniformly random registered node (the draw consumes
// the deployment's submission random stream).
func (d *Deployment) RandomNode() *core.Node {
	nodes := d.Cluster.Nodes()
	return nodes[d.subRng.Intn(len(nodes))]
}

// ScheduleSubmissions arms every submission instant of the scenario's plan,
// generating the job and invoking submit at that virtual time.
func (d *Deployment) ScheduleSubmissions(submit SubmitFunc) {
	for _, at := range d.Config.Submission.Times() {
		at := at
		d.Engine.ScheduleAt(at, func() {
			submit(d, at, d.Gen.Next(at))
		})
	}
}

// Finish runs the simulation to the horizon and snapshots the metrics,
// releasing the sharded kernel's workers if it uses any.
func (d *Deployment) Finish() *metrics.Result {
	d.Engine.Run(d.Config.Horizon)
	if sh, ok := d.Engine.(*sim.Sharded); ok {
		sh.Close()
	}
	if d.Faults != nil {
		d.Recorder.SetLinkFaults(d.Faults.Stats())
	}
	return d.Recorder.Result(
		d.Config.Name, d.Seed, d.Cluster.Graph().NumNodes(),
		d.Config.Horizon, d.Config.SampleInterval,
	)
}

// Run executes one repetition of the scenario under the ARiA protocol and
// returns its metrics.
func Run(c Config, run int) (*metrics.Result, error) {
	d, err := Prepare(c, run)
	if err != nil {
		return nil, err
	}
	d.ScheduleSubmissions(ARiASubmit)
	return d.Finish(), nil
}

// RunN executes runs repetitions and aggregates them. Repetitions are
// fully independent (own engine, RNGs, and overlay), so they run on
// parallel workers; results stay in run order and each run remains
// bit-reproducible in isolation.
func RunN(c Config, runs int) (*metrics.Aggregate, []*metrics.Result, error) {
	results, err := metrics.ParallelRuns(runs, func(run int) (*metrics.Result, error) {
		return Run(c, run)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("scenario %s: %w", c.Name, err)
	}
	return metrics.NewAggregate(results), results, nil
}
