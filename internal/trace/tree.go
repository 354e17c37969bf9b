package trace

import (
	"fmt"
	"sort"
	"strings"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
)

// SpanNode is one node of a job's reconstructed causal tree.
type SpanNode struct {
	Event    core.Event
	Children []*SpanNode
}

// Forest groups events by job and links each event under its causal parent.
// Events whose parent span is unknown (true roots, or events parented to a
// span emitted for another job or evicted from a ring buffer) become roots.
// Roots and children are ordered by time, then span, so the layout is
// deterministic for a deterministic run.
func Forest(events []core.Event) map[job.UUID][]*SpanNode {
	byJob := make(map[job.UUID][]core.Event)
	for _, ev := range events {
		byJob[ev.UUID] = append(byJob[ev.UUID], ev)
	}
	out := make(map[job.UUID][]*SpanNode, len(byJob))
	for uuid, evs := range byJob {
		out[uuid] = buildTree(evs)
	}
	return out
}

func buildTree(events []core.Event) []*SpanNode {
	nodes := make([]*SpanNode, len(events))
	bySpan := make(map[uint64]*SpanNode, len(events))
	for i, ev := range events {
		nodes[i] = &SpanNode{Event: ev}
		if ev.Span != 0 {
			bySpan[ev.Span] = nodes[i]
		}
	}
	var roots []*SpanNode
	for _, n := range nodes {
		parent := bySpan[n.Event.Parent]
		if n.Event.Parent == 0 || parent == nil || parent == n {
			roots = append(roots, n)
			continue
		}
		parent.Children = append(parent.Children, n)
	}
	order := func(a, b *SpanNode) bool {
		if a.Event.At != b.Event.At {
			return a.Event.At < b.Event.At
		}
		return a.Event.Span < b.Event.Span
	}
	sort.SliceStable(roots, func(i, k int) bool { return order(roots[i], roots[k]) })
	for _, n := range nodes {
		c := n.Children
		sort.SliceStable(c, func(i, k int) bool { return order(c[i], c[k]) })
	}
	return roots
}

// FormatForest renders one job's causal tree as an indented text outline,
// one event per line.
func FormatForest(roots []*SpanNode) string {
	var b strings.Builder
	for _, r := range roots {
		formatNode(&b, r, 0)
	}
	return b.String()
}

func formatNode(b *strings.Builder, n *SpanNode, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(formatEvent(n.Event))
	b.WriteByte('\n')
	for _, c := range n.Children {
		formatNode(b, c, depth+1)
	}
}

// formatEvent renders one event as a single line: time, node, kind, and the
// fields that matter for its kind.
func formatEvent(ev core.Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s node=%-4d %s", ev.At, ev.Node, ev.Kind)
	switch ev.Kind {
	case core.SpanFloodOrigin, core.SpanForward:
		fmt.Fprintf(&b, " msg=%s hop=%d ttl=%d fanout=%d seq=%d", ev.Msg, ev.Hop, ev.TTL, ev.Fanout, ev.Seq)
	case core.SpanDuplicate:
		fmt.Fprintf(&b, " msg=%s hop=%d ttl=%d via=%d", ev.Msg, ev.Hop, ev.TTL, ev.Peer)
	case core.SpanOffer:
		fmt.Fprintf(&b, " msg=%s hop=%d cost=%.3f to=%d", ev.Msg, ev.Hop, float64(ev.Cost), ev.Peer)
	case core.SpanOfferRecv:
		fmt.Fprintf(&b, " cost=%.3f from=%d", float64(ev.Cost), ev.Peer)
	case core.SpanAssign:
		fmt.Fprintf(&b, " to=%d cost=%.3f", ev.Peer, float64(ev.Cost))
	case core.SpanReschedule:
		fmt.Fprintf(&b, " to=%d cost=%.3f old=%.3f", ev.Peer, float64(ev.Cost), float64(ev.OldCost))
	case core.SpanRetry, core.SpanResubmit:
		fmt.Fprintf(&b, " attempt=%d peer=%d", ev.Attempt, ev.Peer)
	case core.SpanFallback, core.SpanCancel:
		fmt.Fprintf(&b, " peer=%d", ev.Peer)
	}
	return b.String()
}

// FormatJob reconstructs and renders the causal tree of one job from a raw
// event stream: the convenience entry point for `ariactl trace` and tests.
func FormatJob(events []core.Event, uuid job.UUID) string {
	var evs []core.Event
	for _, ev := range events {
		if ev.UUID == uuid {
			evs = append(evs, ev)
		}
	}
	if len(evs) == 0 {
		return ""
	}
	return FormatForest(buildTree(evs))
}
