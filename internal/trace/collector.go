// Package trace reconstructs per-job causal trees from the span events the
// protocol engine emits (core.Event) and audits protocol invariants
// against them: flood TTL/fanout budgets, exactly-one execution, orphaned
// assignments, reschedule economics, and retry bounds. The trace plane is
// what turns endpoint aggregates (makespan, queue time) into mechanically
// checkable protocol behaviour.
package trace

import (
	"sync"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
)

// Collector accumulates every span event of a run; events without a span
// are not part of the causal trace and are dropped. Safe for concurrent use.
type Collector struct {
	mu     sync.Mutex
	events []core.Event
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Observe implements core.Observer.
func (c *Collector) Observe(ev core.Event) {
	if ev.Span == 0 {
		return
	}
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// Len reports the number of collected events.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// Events returns a copy of every collected event in emission order.
func (c *Collector) Events() []core.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]core.Event, len(c.events))
	copy(out, c.events)
	return out
}

// ByUUID returns the events of one job in emission order.
func (c *Collector) ByUUID(uuid job.UUID) []core.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []core.Event
	for _, ev := range c.events {
		if ev.UUID == uuid {
			out = append(out, ev)
		}
	}
	return out
}

// Ring is a bounded collector for long-running daemons: it keeps the most
// recent capacity events, overwriting the oldest, and counts totals per span
// kind forever. Like Collector it keeps span events only. Safe for
// concurrent use.
type Ring struct {
	mu     sync.Mutex
	buf    []core.Event
	next   int
	filled bool
	total  uint64
	byKind map[core.Kind]uint64
}

// NewRing returns a ring collector holding up to capacity events.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{
		buf:    make([]core.Event, capacity),
		byKind: make(map[core.Kind]uint64),
	}
}

// Observe implements core.Observer.
func (r *Ring) Observe(ev core.Event) {
	if ev.Span == 0 {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next, r.filled = 0, true
	}
	r.total++
	r.byKind[ev.Kind]++
	r.mu.Unlock()
}

// Total reports the number of events ever observed (not just retained).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Counts returns a copy of the per-kind lifetime counters.
func (r *Ring) Counts() map[core.Kind]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[core.Kind]uint64, len(r.byKind))
	for k, v := range r.byKind {
		out[k] = v
	}
	return out
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []core.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.filled {
		out := make([]core.Event, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]core.Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// ByUUID returns the retained events of one job, oldest first.
func (r *Ring) ByUUID(uuid job.UUID) []core.Event {
	var out []core.Event
	for _, ev := range r.Events() {
		if ev.UUID == uuid {
			out = append(out, ev)
		}
	}
	return out
}
