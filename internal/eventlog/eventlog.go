// Package eventlog records job lifecycle events as JSON Lines, one event
// per line, and reads them back. It is the durable audit format of live
// deployments (cmd/ariad -events) and a convenient analysis export for
// simulations.
package eventlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/sched"
)

// Kind enumerates loggable events.
type Kind string

// Event kinds.
const (
	KindSubmitted   Kind = "submitted"
	KindAssigned    Kind = "assigned"
	KindRescheduled Kind = "rescheduled"
	KindStarted     Kind = "started"
	KindCompleted   Kind = "completed"
	KindFailed      Kind = "failed"

	// KindSpan carries one causal trace-plane event (trace extension);
	// Span names the protocol step (core.Kind).
	KindSpan Kind = "span"
)

// Event is one logged lifecycle event.
type Event struct {
	Kind Kind     `json:"kind"`
	At   float64  `json:"atSec"` // seconds since deployment start
	UUID job.UUID `json:"uuid"`

	Node overlay.NodeID `json:"node,omitempty"` // acting node
	From overlay.NodeID `json:"from,omitempty"` // assignment source
	To   overlay.NodeID `json:"to,omitempty"`   // assignment target

	Cost    float64 `json:"cost,omitempty"`    // winning offer (assigned)
	WaitSec float64 `json:"waitSec,omitempty"` // completed
	ExecSec float64 `json:"execSec,omitempty"` // completed
	Reason  string  `json:"reason,omitempty"`  // failed; conflict verdict (span)

	// Trace-plane fields (kind "span" only).
	Span    core.Kind      `json:"span,omitempty"`    // protocol step
	SpanID  uint64         `json:"spanId,omitempty"`  // event's span
	Parent  uint64         `json:"parent,omitempty"`  // causal parent span
	Msg     string         `json:"msg,omitempty"`     // flood message type
	Hop     int            `json:"hop,omitempty"`     // hops from wave origin
	TTL     int            `json:"ttlLeft,omitempty"` // remaining hop budget
	Fanout  int            `json:"fanout,omitempty"`  // neighbors contacted
	Seq     uint64         `json:"seq,omitempty"`     // flood wave sequence
	Origin  overlay.NodeID `json:"origin,omitempty"`  // flood wave origin
	Peer    overlay.NodeID `json:"peer,omitempty"`    // counterpart node
	OldCost float64        `json:"oldCost,omitempty"` // pre-reschedule cost
	Attempt int            `json:"attempt,omitempty"` // retry counter
}

// Writer is a core.Observer that appends one JSON line per logged event. It
// is safe for concurrent use; write errors are recorded and reported by Err.
type Writer struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
	err error
}

var _ core.Observer = (*Writer)(nil)

// NewWriter wraps w. Call Flush when done.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{w: bw, enc: json.NewEncoder(bw)}
}

// Flush drains buffered events and returns the first error seen.
func (l *Writer) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil && l.err == nil {
		l.err = err
	}
	return l.err
}

// Err reports the first write error, if any.
func (l *Writer) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Observe implements core.Observer. Every span event becomes a span line,
// and the job lifecycle steps (submit, assign, reschedule, start, complete,
// fail) add their lifecycle line: before the span line for the first three,
// after it for the rest, as the log has always ordered them. A granted
// commit, the shared-state arm's placement, writes an assigned line alone;
// other kinds without a span are not logged.
func (l *Writer) Observe(ev core.Event) {
	at := ev.At.Seconds()
	var life Event
	after := false
	switch ev.Kind {
	case core.SpanSubmit:
		life = Event{Kind: KindSubmitted, At: at, UUID: ev.UUID, Node: ev.Node}
	case core.SpanAssign, core.KindCommitGranted:
		if !ev.Copy {
			life = Event{Kind: KindAssigned, At: at, UUID: ev.UUID, From: ev.Node, To: ev.Peer, Cost: float64(ev.Cost)}
		}
	case core.SpanReschedule:
		life = Event{Kind: KindRescheduled, At: at, UUID: ev.UUID, From: ev.Node, To: ev.Peer, Cost: float64(ev.Cost)}
	case core.SpanStart:
		life, after = Event{Kind: KindStarted, At: at, UUID: ev.UUID, Node: ev.Node}, true
	case core.SpanComplete:
		life, after = Event{
			Kind: KindCompleted, At: at, UUID: ev.UUID, Node: ev.Node,
			WaitSec: ev.Job.WaitingTime().Seconds(), ExecSec: ev.Job.ExecutionTime().Seconds(),
		}, true
	case core.SpanFail:
		life, after = Event{Kind: KindFailed, At: at, UUID: ev.UUID, Node: ev.Node, Reason: ev.Reason}, true
		ev.Reason = "" // the reason belongs to the failed line
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if life.Kind != "" && !after {
		l.write(life)
	}
	if ev.Span != 0 {
		l.writeSpan(ev)
	}
	if life.Kind != "" && after {
		l.write(life)
	}
}

// writeSpan writes the span line of a trace-plane event. Caller holds l.mu.
func (l *Writer) writeSpan(ev core.Event) {
	l.write(Event{
		Kind: KindSpan, At: ev.At.Seconds(), UUID: ev.UUID, Node: ev.Node,
		Span: ev.Kind, SpanID: ev.Span, Parent: ev.Parent,
		Msg: msgName(ev.Msg), Hop: ev.Hop, TTL: ev.TTL, Fanout: ev.Fanout,
		Seq: ev.Seq, Origin: ev.Origin, Peer: ev.Peer,
		Cost: float64(ev.Cost), OldCost: float64(ev.OldCost), Attempt: ev.Attempt,
		Reason: ev.Reason,
	})
}

// write appends one line. Caller holds l.mu.
func (l *Writer) write(e Event) {
	if l.err != nil {
		return
	}
	if err := l.enc.Encode(e); err != nil {
		l.err = err
		return
	}
	// Line-buffered: an audit log must survive a crash of the process
	// writing it, so every event reaches the sink immediately.
	if err := l.w.Flush(); err != nil {
		l.err = err
	}
}

// msgName renders a message type, leaving the zero value empty so the JSON
// field is omitted for non-flood spans.
func msgName(t core.MsgType) string {
	if t == 0 {
		return ""
	}
	return t.String()
}

// TraceEvent converts a logged span event back into the engine's form, for
// feeding a parsed log to trace.Check or trace.Forest. Returns false for
// non-span events.
func (e Event) TraceEvent() (core.Event, bool) {
	if e.Kind != KindSpan {
		return core.Event{}, false
	}
	return core.Event{
		At:   time.Duration(e.At * float64(time.Second)),
		Node: e.Node, Kind: e.Span, UUID: e.UUID,
		Span: e.SpanID, Parent: e.Parent,
		Msg: msgType(e.Msg), Hop: e.Hop, TTL: e.TTL, Fanout: e.Fanout,
		Seq: e.Seq, Origin: e.Origin, Peer: e.Peer,
		Cost: sched.Cost(e.Cost), OldCost: sched.Cost(e.OldCost), Attempt: e.Attempt,
		Reason: e.Reason,
	}, true
}

// msgType parses the wire name written by msgName.
func msgType(s string) core.MsgType {
	for t := core.MsgRequest; t.Valid(); t++ {
		if t.String() == s {
			return t
		}
	}
	return 0
}

// Read parses a JSONL event stream, preserving order.
func Read(r io.Reader) ([]Event, error) {
	var out []Event
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := scanner.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("eventlog line %d: %w", lineNo, err)
		}
		out = append(out, e)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("eventlog read: %w", err)
	}
	return out, nil
}
