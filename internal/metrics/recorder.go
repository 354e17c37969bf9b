// Package metrics collects the evaluation measurements the paper reports:
// completed jobs over time, completion-time breakdowns, idle-node series,
// deadline performance, and per-message-type network traffic.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/faults"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/overlay"
)

// Traffic accumulates transmissions of one message type.
type Traffic struct {
	Count int64
	Bytes int64
}

// IdleSample is one point of the idle-node time series.
type IdleSample struct {
	At    time.Duration
	Idle  int
	Nodes int
}

// JobOutcome is the final accounting record of one completed job.
type JobOutcome struct {
	UUID          job.UUID
	Class         job.Class
	Node          overlay.NodeID
	SubmittedAt   time.Duration
	StartedAt     time.Duration
	CompletedAt   time.Duration
	Deadline      time.Duration
	EarliestStart time.Duration
	Waiting       time.Duration
	Execution     time.Duration
	Completion    time.Duration
}

// MissedDeadline reports whether the job finished past its deadline.
func (o JobOutcome) MissedDeadline() bool {
	return o.Class == job.ClassDeadline && o.CompletedAt > o.Deadline
}

// Recorder implements core.Observer and accumulates a full run's events.
// It is safe for concurrent use so the same recorder works under live
// transports.
//
// Completions are idempotent per job UUID: should a failsafe resubmission
// ever race a surviving assignee, only the first completion counts.
type Recorder struct {
	mu          sync.Mutex
	submitted   map[job.UUID]time.Duration
	assignments int
	reschedules int
	starts      map[job.UUID]int
	outcomes    map[job.UUID]JobOutcome
	order       []job.UUID
	failed      int
	idle        []IdleSample

	// traffic is indexed by MsgType (types are small consecutive ints);
	// a fixed array keeps the per-message hot path free of map probes.
	traffic [int(core.MsgConflict) + 1]Traffic

	assignRetries    int
	assignRecoveries int
	linkFaults       faults.Stats

	// Membership plane counters (liveness detector + overlay repair).
	peersSuspected  int
	peersRefuted    int
	peersDead       int
	linksRepaired   int
	floodsEscalated int

	// submissionsLost counts workload submissions that found no living
	// initiator (churn killed the drawn nodes); they never entered the
	// protocol and are invisible to every other counter.
	submissionsLost int

	// Recovery plane counters (write-ahead journal + crash restart).
	restarts       int
	jobsRecovered  int
	replayRecords  int
	maxSnapshotAge time.Duration

	// Directory plane counters (gossip-fed cache + directed discovery).
	// Probes are counted at the initiator — on the wire a directed REQUEST
	// is indistinguishable from a flood copy, so the traffic split between
	// directed and flooded discovery is measured at the source.
	dirHits      int
	dirMisses    int
	dirFallbacks int
	dirProbes    int
	dirEvictions map[string]int

	// Overload plane counters (bounded queues + BUSY shedding + admission
	// control). submissionsShed counts workload submissions bounced by
	// admission control at every redrawn portal — like submissionsLost,
	// they never entered the protocol.
	requestsShed    int
	assignsShed     int
	shedsReflooded  int
	shedsReenqueued int
	peersBusy       int
	submitRejects   int
	submissionsShed int

	// Shared-state plane counters (optimistic commits + conflict retries).
	commitsSent         int
	commitConflicts     map[string]int
	commitsGranted      int
	commitGrantAttempts int
	commitFallbacks     int

	// Per-kind span counters.
	spans map[core.Kind]int
}

var _ core.Observer = (*Recorder)(nil)

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		submitted: make(map[job.UUID]time.Duration),
		starts:    make(map[job.UUID]int),
		outcomes:  make(map[job.UUID]JobOutcome),
		spans:     make(map[core.Kind]int),

		dirEvictions:    make(map[string]int),
		commitConflicts: make(map[string]int),
	}
}

// Observe implements core.Observer: span events count per kind, and every
// kind a result field reports feeds its counter.
func (r *Recorder) Observe(ev core.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ev.Span != 0 {
		r.spans[ev.Kind]++
	}
	switch ev.Kind {
	case core.SpanSubmit:
		if _, dup := r.submitted[ev.UUID]; !dup {
			r.submitted[ev.UUID] = ev.At
		}
	case core.SpanAssign:
		if !ev.Copy {
			r.assignments++
		}
	case core.SpanReschedule:
		r.assignments++
		r.reschedules++
	case core.SpanStart:
		r.starts[ev.UUID]++
	case core.SpanComplete:
		r.complete(ev.Node, ev.Job)
	case core.SpanFail:
		r.failed++
	case core.SpanRetry:
		r.assignRetries++
	case core.KindAssignRecovered:
		r.assignRecoveries++
	case core.SpanSuspect:
		r.peersSuspected++
	case core.KindRefuted:
		r.peersRefuted++
	case core.SpanPeerDead:
		r.peersDead++
	case core.SpanRepair:
		r.linksRepaired++
	case core.KindFloodEscalated:
		r.floodsEscalated++
	case core.SpanRestart:
		r.jobsRecovered += ev.Fanout
		r.replayRecords += ev.Count
		if ev.Age > r.maxSnapshotAge {
			r.maxSnapshotAge = ev.Age
		}
	case core.SpanDirectedProbe:
		r.dirHits++
		r.dirProbes += ev.Fanout
	case core.KindDirectoryMiss:
		r.dirMisses++
	case core.SpanDirectoryFallback:
		r.dirFallbacks++
	case core.KindDirectoryEvicted:
		r.dirEvictions[ev.Reason]++
	case core.SpanBusy:
		if ev.Msg == core.MsgAssign {
			r.assignsShed++
		} else {
			r.requestsShed++
		}
	case core.SpanShed:
		if ev.Requeued {
			r.shedsReenqueued++
		} else {
			r.shedsReflooded++
		}
	case core.KindPeerBusy:
		r.peersBusy++
	case core.KindSubmitRejected:
		r.submitRejects++
	case core.SpanCommit:
		r.commitsSent++
	case core.KindConflictRecv:
		r.commitConflicts[ev.Reason]++
	case core.SpanConflict:
		// Provider-side rejections are counted where the initiator
		// receives them (KindConflictRecv); a timeout has no reply.
		if ev.Reason == core.ConflictTimeout {
			r.commitConflicts[ev.Reason]++
		}
	case core.KindCommitGranted:
		r.assignments++
		r.commitsGranted++
		r.commitGrantAttempts += ev.Attempt
	case core.SpanCommitFallback:
		r.commitFallbacks++
	}
}

// complete records a job's first completion. Caller holds the lock.
func (r *Recorder) complete(node overlay.NodeID, j *job.Job) {
	if _, dup := r.outcomes[j.UUID]; dup {
		return
	}
	r.outcomes[j.UUID] = JobOutcome{
		UUID:          j.UUID,
		Class:         j.Class,
		Node:          node,
		SubmittedAt:   j.SubmittedAt,
		StartedAt:     j.StartedAt,
		CompletedAt:   j.CompletedAt,
		Deadline:      j.Deadline,
		EarliestStart: j.EarliestStart,
		Waiting:       j.WaitingTime(),
		Execution:     j.ExecutionTime(),
		Completion:    j.CompletionTime(),
	}
	r.order = append(r.order, j.UUID)
}

// NodeRestarted records one node coming back after a crash (whether or not
// it had a journal to recover from; the harness calls this, since an
// amnesiac restart is invisible to the protocol).
func (r *Recorder) NodeRestarted() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.restarts++
}

// SubmissionShed records one workload submission that admission control
// bounced at every redrawn portal; like a lost submission it never entered
// the protocol.
func (r *Recorder) SubmissionShed() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.submissionsShed++
}

// SubmissionLost records one workload submission that found no living
// initiator and was dropped before entering the protocol.
func (r *Recorder) SubmissionLost() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.submissionsLost++
}

// SetLinkFaults stores the fault plane's final transmission statistics so
// the run's result reports how much network abuse was absorbed.
func (r *Recorder) SetLinkFaults(st faults.Stats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.linkFaults = st
}

// OnMessage records one message transmission; wire it as the cluster's
// traffic hook.
func (r *Recorder) OnMessage(_ time.Duration, _, _ overlay.NodeID, m *core.Message) {
	if int(m.Type) >= len(r.traffic) || m.Type < 0 {
		return
	}
	// Atomic adds, not the recorder mutex: this is the per-message hot
	// path and the counters commute.
	t := &r.traffic[m.Type]
	atomic.AddInt64(&t.Count, 1)
	atomic.AddInt64(&t.Bytes, int64(m.WireSize()))
}

// AddIdleSample appends one idle-node sample.
func (r *Recorder) AddIdleSample(at time.Duration, idle, nodes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.idle = append(r.idle, IdleSample{At: at, Idle: idle, Nodes: nodes})
}

// Outcomes returns completed-job records in completion order — canonically
// by (completion time, UUID), not raw callback arrival order, which under a
// sharded kernel may interleave nondeterministically across shard workers
// within one epoch window.
func (r *Recorder) Outcomes() []JobOutcome {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]JobOutcome, 0, len(r.order))
	for _, uuid := range r.order {
		out = append(out, r.outcomes[uuid])
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].CompletedAt != out[k].CompletedAt {
			return out[i].CompletedAt < out[k].CompletedAt
		}
		return out[i].UUID < out[k].UUID
	})
	return out
}
