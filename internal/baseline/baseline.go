// Package baseline implements the comparison meta-schedulers the paper's
// related-work section positions ARiA against: a centralized omniscient
// scheduler with a global view of every node's state (the traditional grid
// model, e.g. Globus/UNICORE-style), and a random-assignment scheduler as a
// lower bound. Both reuse the same nodes, overlay, workload, and metrics as
// the ARiA scenarios — only the assignment decision differs, so the
// comparison isolates the meta-scheduling policy.
package baseline

import (
	"fmt"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/metrics"
	"github.com/smartgrid/aria/internal/scenario"
	"github.com/smartgrid/aria/internal/sched"
)

// Kind selects a baseline meta-scheduler.
type Kind int

// Baseline meta-schedulers.
const (
	// Centralized assigns each job to the globally cheapest node, with a
	// perfectly fresh view of every queue — an upper bound no distributed
	// protocol can see past.
	Centralized Kind = iota + 1

	// Random assigns each job to a uniformly random matching node — the
	// lower bound a discovery protocol must beat.
	Random
)

// String names the baseline.
func (k Kind) String() string {
	switch k {
	case Centralized:
		return "centralized"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Valid reports whether k names a known baseline.
func (k Kind) Valid() bool {
	return k == Centralized || k == Random
}

// assignmentLatency models the client→scheduler→node delivery of a
// centralized deployment (one wide-area round trip).
const assignmentLatency = 100 * time.Millisecond

// Run executes one repetition of the scenario with the given baseline
// meta-scheduler instead of the ARiA protocol. Dynamic rescheduling does
// not exist in either baseline, so the scenario's INFORM knobs are ignored
// by forcing them off.
func Run(k Kind, c scenario.Config, run int) (*metrics.Result, error) {
	if !k.Valid() {
		return nil, fmt.Errorf("invalid baseline kind %d", int(k))
	}
	c.Name = c.Name + "+" + k.String()
	c.Protocol.InformJobs = 0 // no protocol-level rescheduling
	d, err := scenario.Prepare(c, run)
	if err != nil {
		return nil, err
	}
	d.ScheduleSubmissions(func(d *scenario.Deployment, at time.Duration, p job.Profile) {
		submit(k, d, at, p)
	})
	return d.Finish(), nil
}

// RunN executes runs repetitions on parallel workers and aggregates them.
func RunN(k Kind, c scenario.Config, runs int) (*metrics.Aggregate, []*metrics.Result, error) {
	results, err := metrics.ParallelRuns(runs, func(run int) (*metrics.Result, error) {
		return Run(k, c, run)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("baseline %v: %w", k, err)
	}
	return metrics.NewAggregate(results), results, nil
}

// submit performs one baseline assignment: choose a node with global
// knowledge and deliver the job directly.
func submit(k Kind, d *scenario.Deployment, at time.Duration, p job.Profile) {
	// The central scheduler is no protocol node: its events carry no span.
	rec := d.Recorder
	rec.Observe(core.Event{Kind: core.SpanSubmit, At: at, Node: -1, UUID: p.UUID})
	var target *core.Node
	var cost sched.Cost
	switch k {
	case Centralized:
		target, cost = cheapest(d, p)
	case Random:
		target, cost = randomMatch(d, p)
	}
	if target == nil {
		rec.Observe(core.Event{Kind: core.SpanFail, At: at, Node: -1, UUID: p.UUID, Reason: "no candidate found"})
		return
	}
	rec.Observe(core.Event{Kind: core.SpanAssign, At: at, Node: -1, UUID: p.UUID, Peer: target.ID(), Cost: cost})
	// Deliver the ASSIGN after one scheduler round trip; the node's own
	// queueing and execution machinery take over from there.
	d.Engine.Schedule(assignmentLatency, func() {
		target.HandleMessage(core.Message{Type: core.MsgAssign, From: target.ID(), Job: p})
	})
}

// cheapest scans every node with a perfectly fresh global view.
func cheapest(d *scenario.Deployment, p job.Profile) (*core.Node, sched.Cost) {
	var best *core.Node
	var bestCost sched.Cost
	for _, n := range d.Cluster.Nodes() {
		cost, ok := n.Offer(p)
		if !ok {
			continue
		}
		if best == nil || cost < bestCost {
			best, bestCost = n, cost
		}
	}
	return best, bestCost
}

// randomMatch picks a uniformly random node able to host the job.
func randomMatch(d *scenario.Deployment, p job.Profile) (*core.Node, sched.Cost) {
	var matches []*core.Node
	var costs []sched.Cost
	for _, n := range d.Cluster.Nodes() {
		if cost, ok := n.Offer(p); ok {
			matches = append(matches, n)
			costs = append(costs, cost)
		}
	}
	if len(matches) == 0 {
		return nil, 0
	}
	// Reuse the deployment's submission stream for determinism by drawing
	// through RandomNode's generator is not possible here; use the engine
	// source, which is equally deterministic under the simulator.
	i := d.Engine.Rand().Intn(len(matches))
	return matches[i], costs[i]
}
