package core

import (
	"time"

	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
	"github.com/smartgrid/aria/internal/sched"
)

// Kind names one protocol action in a node's event stream. Every action a
// node takes emits exactly one Event to its Observer: metrics, event logs,
// trace retention, and daemon counters are all sinks of the same stream.
//
// Span kinds (the Span* constants) are steps of a job's causal trace: each
// carries a fresh span ID, and span/parent links across events reconstruct
// the causal tree of the job's journey through the grid (flood fan-out,
// offer collection, assignment, rescheduling handoffs, retries, recovery).
// The other kinds (Kind*) are bookkeeping with no place in that tree: they
// carry Span zero and never advance the span counter, so arming or dropping
// one leaves span IDs, wire bytes, and traced logs unchanged.
type Kind string

// Event kinds.
const (
	// SpanSubmit is the root span of a job: an initiator accepted it.
	SpanSubmit Kind = "submit"

	// SpanFloodOrigin marks the launch of one flood wave (a REQUEST
	// discovery round or one INFORM advertisement). Fanout is the number
	// of neighbors actually contacted; Hop is 0 and TTL the full budget.
	SpanFloodOrigin Kind = "flood_origin"

	// SpanForward marks a node relaying a flood one more hop. Fanout is
	// the number of neighbors actually contacted; Hop and TTL are the
	// received message's values. A node forwards a given wave at most
	// once: suppressed duplicates emit SpanDuplicate, never SpanForward.
	SpanForward Kind = "forward"

	// SpanDuplicate marks a flood copy suppressed by deduplication. It is
	// bookkeeping, not a forward; redundancy ratios are computed from it.
	SpanDuplicate Kind = "duplicate"

	// SpanOffer marks a candidate answering a flood with an ACCEPT
	// (Cost carries the bid).
	SpanOffer Kind = "offer"

	// SpanOfferRecv marks an initiator or assignee collecting an ACCEPT.
	SpanOfferRecv Kind = "offer_recv"

	// SpanAssign marks an initiator closing a discovery round by
	// delegating the job (Peer is the chosen assignee, Cost the winning
	// offer). Copy marks the extra copies of a multi-assign round: only
	// the first (cheapest) assignment is the job's placement.
	SpanAssign Kind = "assign"

	// SpanReschedule marks an assignee handing a queued job to a cheaper
	// node: OldCost is the job's current local cost, Cost the accepted
	// remote offer, Peer the new assignee.
	SpanReschedule Kind = "reschedule"

	// SpanEnqueue marks a job entering a node's local queue.
	SpanEnqueue Kind = "enqueue"

	// SpanStart marks execution beginning.
	SpanStart Kind = "start"

	// SpanComplete marks execution finishing; Job carries the finished job
	// with its lifecycle timestamps.
	SpanComplete Kind = "complete"

	// SpanRetry marks an ASSIGN retransmission (AssignAck handshake);
	// Attempt counts from 1.
	SpanRetry Kind = "assign_retry"

	// SpanFallback marks the loss-recovery path after ASSIGN retries were
	// exhausted: a re-flood (initiator) or a local re-enqueue (assignee).
	SpanFallback Kind = "assign_fallback"

	// SpanResubmit marks the failsafe watchdog re-submitting a job that
	// went silent; Attempt is the resubmission count.
	SpanResubmit Kind = "resubmit"

	// SpanCancel marks a multi-assigned copy being revoked.
	SpanCancel Kind = "cancel"

	// SpanLost marks job state destroyed by a node crash: a queued or
	// running job, an in-flight discovery round, or an unacknowledged
	// outbound ASSIGN.
	SpanLost Kind = "lost"

	// SpanFail marks an initiator abandoning a job: Reason says why
	// (discovery exhausted its retries, or the failsafe watchdog gave up).
	SpanFail Kind = "fail"

	// SpanSuspect marks the liveness detector moving a neighbor (Peer)
	// from alive to suspect after an unanswered probe. Membership events
	// carry no job UUID.
	SpanSuspect Kind = "suspect"

	// SpanPeerDead marks the terminal dead verdict on a neighbor (Peer):
	// the suspect window closed without refutation. After this event the
	// emitting node never addresses Peer again.
	SpanPeerDead Kind = "peer_dead"

	// SpanRepair marks overlay repair replacing a pruned dead link:
	// Peer is the new neighbor, Origin the dead one it replaces, and
	// Fanout the node's degree after the repair (audited against the
	// configured MaxDegree).
	SpanRepair Kind = "repair"

	// SpanRestart marks a journaled node rebooting and replaying its
	// durable scheduler state. It carries no job UUID; Fanout is the
	// number of job-state entries recovered, Count the journal records
	// replayed on top of the snapshot, and Age how far behind the crash
	// instant the snapshot was (the whole uptime when none existed).
	SpanRestart Kind = "restart"

	// SpanDirectedProbe marks the launch of one directed discovery round
	// (directory extension): TTL-0 targeted REQUESTs to cached candidates
	// instead of a flood. Like SpanFloodOrigin, Hop is 0 and TTL the wave
	// budget (always 1: probes do not propagate), Fanout the number of
	// candidates actually probed, and Seq/Origin name the wave.
	SpanDirectedProbe Kind = "directed_probe"

	// SpanDirectoryFallback marks a starved directed round escalating to
	// the classic flood: fewer than MinDirectedOffers remote ACCEPTs
	// arrived by the decision timer. Parent is the directed-probe span;
	// the fallback flood's origin parents here. Attempt carries the
	// number of remote offers that did arrive.
	SpanDirectoryFallback Kind = "directory_fallback"

	// SpanBusy marks a saturated provider shedding load (overload
	// extension): Msg discriminates what was shed — MsgRequest for a
	// declined offer opportunity (advisory), MsgAssign for a refused
	// assignment the sender must re-dispatch. Parent is the span of the
	// message being shed; Peer is the node being answered; Fanout carries
	// the provider's queued+running count at the moment of shedding.
	SpanBusy Kind = "busy"

	// SpanShed marks the sender of a shed ASSIGN reacting to the BUSY
	// reply: the handshake is closed and the job re-dispatched — an
	// initiator re-floods a fresh REQUEST, a rescheduling assignee
	// re-enqueues locally. Parent is the provider's busy span; Peer the
	// busy provider. The checker's shed-ASSIGN invariant requires every
	// shed span to have a child (the re-dispatch). Requeued marks the
	// assignee's local re-enqueue.
	SpanShed Kind = "shed"

	// SpanCommit marks an initiator committing a job optimistically
	// against its cached cluster view (shared-state extension): Peer is
	// the chosen provider, Cost the view's believed load at pick time, and
	// Attempt the commit attempt counting from 1. Children decide the
	// outcome: an enqueue (at the provider) for a granted commit, a
	// conflict for a rejected one.
	SpanCommit Kind = "commit"

	// SpanConflict marks a failed optimistic commit: a provider rejecting
	// it (Reason busy/stale/lost, Parent the commit span, Peer the
	// initiator being answered) or the initiator timing out a commit whose
	// provider never answered (Reason timeout, Peer the silent provider).
	// Attempt mirrors the commit's. The initiator's retry commit — or the
	// flood fallback — parents here, chaining the round causally.
	SpanConflict Kind = "conflict"

	// SpanCommitFallback marks an initiator abandoning the cached view
	// after K failed commits and escalating to the classic REQUEST flood.
	// Parent is the final conflict span; Attempt carries the failed-commit
	// count (always exactly K). The fallback flood's origin parents here.
	SpanCommitFallback Kind = "commit_fallback"

	// SpanRecovered marks one job-state entry rebuilt from the journal
	// after a restart. Parent is the pre-crash span under which the state
	// was journaled, linking the replayed subtree into the original causal
	// tree. Msg discriminates the entry kind: MsgAssign for a re-enqueued
	// queued (or interrupted running) job, MsgNotify for a re-armed
	// initiator watchdog (Peer = tracked assignee), MsgAssignAck for a
	// re-opened unacknowledged ASSIGN handshake (Peer = assignee).
	SpanRecovered Kind = "recovered"

	// KindFloodEscalated marks a zero-offer discovery round re-flooding
	// with an escalated TTL: Attempt counts retries from 1, TTL is the
	// escalated budget.
	KindFloodEscalated Kind = "flood_escalated"

	// KindRefuted marks a suspected neighbor (Peer) proving alive in time:
	// a PING or PONG arrived inside the suspect window.
	KindRefuted Kind = "refuted"

	// KindDirectoryMiss marks a first discovery round whose directory held
	// too few usable candidates, so it flooded directly.
	KindDirectoryMiss Kind = "directory_miss"

	// KindDirectoryEvicted marks a cached digest for Peer being dropped;
	// Reason is one of the directory.Evict* constants.
	KindDirectoryEvicted Kind = "directory_evicted"

	// KindPeerBusy marks a node learning from a BUSY reply (advisory or
	// shed) that Peer is saturated, and demoting it in its directory.
	KindPeerBusy Kind = "peer_busy"

	// KindSubmitRejected marks admission control bouncing a local Submit
	// (MaxPendingSubmits exceeded); Count is the in-flight discovery count.
	KindSubmitRejected Kind = "submit_rejected"

	// KindCommitGranted marks Peer granting an initiator's optimistic
	// commit: the job's placement on the shared-state arm. Attempt is the
	// number of commits the round took (1 = first try).
	KindCommitGranted Kind = "commit_granted"

	// KindConflictRecv marks an initiator receiving a provider's CONFLICT
	// for its open commit round: Reason is the verdict (busy, stale, lost),
	// Peer the provider, Attempt the failed attempt. The provider's
	// conflict span already records the rejection itself.
	KindConflictRecv Kind = "conflict_recv"

	// KindAssignRecovered marks an assignment that survived message loss:
	// the acknowledgement arrived after at least one retransmission, or the
	// fallback path re-homed the job.
	KindAssignRecovered Kind = "assign_recovered"
)

// Event is one protocol action of one node.
//
// Span is the event's own identifier for span kinds (unique within a run:
// the emitting node's ID in the high bits, a per-node counter in the low
// bits) and zero otherwise; Parent is the span that caused it — the sending
// event's span for events triggered by a received message, an earlier local
// span otherwise, or zero for roots.
type Event struct {
	At   time.Duration
	Node overlay.NodeID
	Kind Kind
	UUID job.UUID

	Span   uint64
	Parent uint64

	// Msg is the message type for flood and delivery events.
	Msg MsgType

	// Hop and TTL snapshot the flood trace context: Hop counts overlay
	// hops from the wave origin (0 at the origin), TTL is the remaining
	// hop budget. Their sum is invariant along a wave.
	Hop int
	TTL int

	// Fanout is the number of neighbors actually contacted by a flood
	// origin or forward event.
	Fanout int

	// Seq identifies the flood wave (per-origin counter) for flood events.
	Seq uint64

	// Origin is the flood wave's originating node for flood events
	// (origin, forward, duplicate, offer); together with UUID, Msg, and
	// Seq it names one wave, exactly like the dedup key.
	Origin overlay.NodeID

	// Peer is the counterpart node, where one exists (assignment target,
	// offer destination, forward origin).
	Peer overlay.NodeID

	// Cost and OldCost carry offer economics: Cost is the offered or
	// winning cost; OldCost is the incumbent cost a reschedule improved on.
	Cost    sched.Cost
	OldCost sched.Cost

	// Attempt counts retries and resubmissions, from 1.
	Attempt int

	// Reason discriminates conflict events (shared-state extension): a
	// ConflictKind string (busy, stale, lost) for provider rejections,
	// "timeout" for commits the initiator gave up waiting on. Fail and
	// directory-eviction events carry their reason here too.
	Reason string

	// The fields below are not part of the span record: event logs and
	// trace rings never carry them. They give counters what the span
	// fields do not.

	// Job is the finished job of a completion.
	Job *job.Job

	// Count is a restart's replayed journal records, or a rejected
	// submission's in-flight discovery count.
	Count int

	// Age is a restart's snapshot age.
	Age time.Duration

	// Copy marks an extra multi-assign copy; Requeued a shed ASSIGN whose
	// sender took the job back into its own queue instead of re-flooding.
	Copy, Requeued bool
}

// Observer receives a node's event stream. Observe runs on the node's
// execution context while the node lock is held: it must not block or call
// back into the node. Sinks shared by several nodes must be safe for
// concurrent use (sharded simulator workers and live transports call them in
// parallel).
type Observer interface {
	Observe(ev Event)
}

// Observers fans every event out to each member in order; an empty list
// ignores the stream.
type Observers []Observer

// Observe implements Observer.
func (obs Observers) Observe(ev Event) {
	for _, o := range obs {
		o.Observe(ev)
	}
}
