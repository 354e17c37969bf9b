package metrics

import (
	"math/rand"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/resource"
)

func completedJob(rng *rand.Rand, submitted, started, completed time.Duration) *job.Job {
	j := job.New(job.Profile{
		UUID: job.NewUUID(rng),
		Req: resource.Requirements{
			Arch: resource.ArchAMD64, OS: resource.OSLinux, MinMemoryGB: 1, MinDiskGB: 1,
		},
		ERT:         time.Hour,
		Class:       job.ClassBatch,
		SubmittedAt: submitted,
	})
	j.State = job.StateCompleted
	j.StartedAt = started
	j.CompletedAt = completed
	return j
}

func deadlineOutcome(rng *rand.Rand, deadline, completed time.Duration) *job.Job {
	j := completedJob(rng, 0, time.Hour, completed)
	j.Class = job.ClassDeadline
	j.Deadline = deadline
	return j
}

func TestRecorderCompletionAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRecorder()
	j1 := completedJob(rng, 0, time.Hour, 2*time.Hour)           // wait 1h exec 1h comp 2h
	j2 := completedJob(rng, time.Hour, 4*time.Hour, 6*time.Hour) // wait 3h exec 2h comp 5h
	r.Observe(core.Event{Node: 1, Kind: core.SpanSubmit, UUID: j1.UUID})
	r.Observe(core.Event{At: time.Hour, Node: 2, Kind: core.SpanSubmit, UUID: j2.UUID})
	r.Observe(core.Event{At: 2 * time.Hour, Node: 5, Kind: core.SpanComplete, Job: j1})
	r.Observe(core.Event{At: 6 * time.Hour, Node: 6, Kind: core.SpanComplete, Job: j2})
	res := r.Result("test", 1, 10, 10*time.Hour, time.Hour)
	if res.Submitted != 2 || res.Completed != 2 {
		t.Fatalf("submitted/completed = %d/%d", res.Submitted, res.Completed)
	}
	if res.AvgWaiting != 2*time.Hour {
		t.Fatalf("AvgWaiting = %v, want 2h", res.AvgWaiting)
	}
	if res.AvgExecution != 90*time.Minute {
		t.Fatalf("AvgExecution = %v, want 1h30m", res.AvgExecution)
	}
	if res.AvgCompletion != 3*time.Hour+30*time.Minute {
		t.Fatalf("AvgCompletion = %v, want 3h30m", res.AvgCompletion)
	}
}

func TestRecorderCompletionIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := NewRecorder()
	j := completedJob(rng, 0, time.Hour, 2*time.Hour)
	r.Observe(core.Event{At: 2 * time.Hour, Node: 1, Kind: core.SpanComplete, Job: j})
	dup := *j
	dup.CompletedAt = 9 * time.Hour
	r.Observe(core.Event{At: 9 * time.Hour, Node: 2, Kind: core.SpanComplete, Job: &dup})
	res := r.Result("test", 1, 10, 10*time.Hour, time.Hour)
	if res.Completed != 1 {
		t.Fatalf("Completed = %d, want 1 (idempotent)", res.Completed)
	}
	if got := r.Outcomes()[0].CompletedAt; got != 2*time.Hour {
		t.Fatalf("first completion should win, got %v", got)
	}
}

func TestRecorderCompletedSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := NewRecorder()
	r.Observe(core.Event{Node: 1, Kind: core.SpanComplete, Job: completedJob(rng, 0, 0, 30*time.Minute)})
	r.Observe(core.Event{Node: 1, Kind: core.SpanComplete, Job: completedJob(rng, 0, 0, 90*time.Minute)})
	r.Observe(core.Event{Node: 1, Kind: core.SpanComplete, Job: completedJob(rng, 0, 0, 100*time.Minute)})
	res := r.Result("test", 1, 10, 3*time.Hour, time.Hour)
	// Bins: [0,1h)→1, [1h,2h)→2 more, [2h,3h]→0. Cumulative: 1,3,3,3.
	want := []int{1, 3, 3, 3}
	if len(res.CompletedSeries) != len(want) {
		t.Fatalf("series len %d, want %d", len(res.CompletedSeries), len(want))
	}
	for i, w := range want {
		if res.CompletedSeries[i] != w {
			t.Fatalf("series = %v, want %v", res.CompletedSeries, want)
		}
	}
}

func TestRecorderDeadlineMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := NewRecorder()
	r.Observe(core.Event{Node: 1, Kind: core.SpanComplete, Job: deadlineOutcome(rng, 5*time.Hour, 3*time.Hour)}) // met, slack 2h
	r.Observe(core.Event{Node: 1, Kind: core.SpanComplete, Job: deadlineOutcome(rng, 5*time.Hour, 4*time.Hour)}) // met, slack 1h
	r.Observe(core.Event{Node: 1, Kind: core.SpanComplete, Job: deadlineOutcome(rng, 2*time.Hour, 5*time.Hour)}) // missed by 3h
	res := r.Result("test", 1, 10, 10*time.Hour, time.Hour)
	if res.DeadlineJobs != 3 || res.MissedDeadlines != 1 {
		t.Fatalf("deadline jobs/missed = %d/%d", res.DeadlineJobs, res.MissedDeadlines)
	}
	if res.AvgLateness != 90*time.Minute {
		t.Fatalf("AvgLateness = %v, want 1h30m", res.AvgLateness)
	}
	if res.AvgMissedTime != 3*time.Hour {
		t.Fatalf("AvgMissedTime = %v, want 3h", res.AvgMissedTime)
	}
}

func TestRecorderTraffic(t *testing.T) {
	r := NewRecorder()
	rng := rand.New(rand.NewSource(5))
	p := completedJob(rng, 0, 0, time.Hour).Profile
	r.OnMessage(0, 1, 2, &core.Message{Type: core.MsgRequest, Job: p})
	r.OnMessage(0, 1, 2, &core.Message{Type: core.MsgRequest, Job: p})
	r.OnMessage(0, 2, 1, &core.Message{Type: core.MsgAccept, Job: p})
	res := r.Result("test", 1, 4, time.Hour, time.Minute)
	if res.Traffic[core.MsgRequest].Count != 2 || res.Traffic[core.MsgRequest].Bytes != 2048 {
		t.Fatalf("request traffic %+v", res.Traffic[core.MsgRequest])
	}
	if res.Traffic[core.MsgAccept].Bytes != 128 {
		t.Fatalf("accept traffic %+v", res.Traffic[core.MsgAccept])
	}
	if res.TotalBytes != 2176 {
		t.Fatalf("TotalBytes = %d", res.TotalBytes)
	}
	if res.BytesPerNode != 544 {
		t.Fatalf("BytesPerNode = %v", res.BytesPerNode)
	}
	wantBW := 544.0 * 8 / 3600
	if diff := res.BandwidthBPS - wantBW; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("BandwidthBPS = %v, want %v", res.BandwidthBPS, wantBW)
	}
}

func TestRecorderIdleAndFailures(t *testing.T) {
	r := NewRecorder()
	r.AddIdleSample(time.Minute, 9, 10)
	r.AddIdleSample(2*time.Minute, 8, 10)
	r.Observe(core.Event{Node: 1, Kind: core.SpanFail, UUID: job.UUID("x"), Reason: "no candidate"})
	res := r.Result("test", 1, 10, time.Hour, time.Minute)
	if len(res.IdleSeries) != 2 || res.IdleSeries[1].Idle != 8 {
		t.Fatalf("idle series %+v", res.IdleSeries)
	}
	if res.Failed != 1 {
		t.Fatalf("failed = %d", res.Failed)
	}
}

func TestRecorderReschedules(t *testing.T) {
	r := NewRecorder()
	r.Observe(core.Event{Node: 1, Kind: core.SpanAssign, UUID: "a", Peer: 2, Cost: 10})
	r.Observe(core.Event{Node: 2, Kind: core.SpanReschedule, UUID: "a", Peer: 3, Cost: 5})
	r.Observe(core.Event{Node: 3, Kind: core.SpanReschedule, UUID: "a", Peer: 4, Cost: 2})
	res := r.Result("test", 1, 10, time.Hour, time.Minute)
	if res.Assignments != 3 || res.Reschedules != 2 {
		t.Fatalf("assignments/reschedules = %d/%d", res.Assignments, res.Reschedules)
	}
}

func TestNewAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	mk := func(completion time.Duration) *Result {
		r := NewRecorder()
		j := completedJob(rng, 0, 0, completion)
		r.Observe(core.Event{Node: 1, Kind: core.SpanSubmit, UUID: j.UUID})
		r.Observe(core.Event{At: completion, Node: 1, Kind: core.SpanComplete, Job: j})
		r.AddIdleSample(time.Minute, 5, 10)
		r.OnMessage(0, 1, 2, &core.Message{Type: core.MsgInform, Job: j.Profile})
		return r.Result("agg", 1, 10, 4*time.Hour, time.Hour)
	}
	agg := NewAggregate([]*Result{mk(2 * time.Hour), mk(4 * time.Hour)})
	if agg == nil || agg.Runs != 2 {
		t.Fatalf("aggregate %+v", agg)
	}
	if agg.AvgCompletionSec.Mean != (3 * time.Hour).Seconds() {
		t.Fatalf("mean completion %v", agg.AvgCompletionSec.Mean)
	}
	if agg.Completed.Mean != 1 {
		t.Fatalf("mean completed %v", agg.Completed.Mean)
	}
	if len(agg.CompletedSeries) == 0 || len(agg.IdleSeries) == 0 {
		t.Fatal("aggregate series missing")
	}
	if _, ok := agg.TrafficBytes[core.MsgInform]; !ok {
		t.Fatal("aggregate traffic missing INFORM")
	}
	if NewAggregate(nil) != nil {
		t.Fatal("NewAggregate(nil) should be nil")
	}
}

func TestDuplicateStartsAccounting(t *testing.T) {
	r := NewRecorder()
	r.Observe(core.Event{Node: 1, Kind: core.SpanStart, UUID: "a"})
	r.Observe(core.Event{Node: 2, Kind: core.SpanStart, UUID: "a"}) // duplicate copy
	r.Observe(core.Event{Node: 3, Kind: core.SpanStart, UUID: "a"}) // another duplicate
	r.Observe(core.Event{Node: 1, Kind: core.SpanStart, UUID: "b"})
	res := r.Result("t", 1, 4, time.Hour, time.Minute)
	if res.DuplicateStarts != 2 {
		t.Fatalf("DuplicateStarts = %d, want 2", res.DuplicateStarts)
	}
}

func TestJainIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := NewRecorder()
	// Two nodes doing equal work out of 2 total nodes → J = 1.
	a := completedJob(rng, 0, 0, time.Hour)
	b := completedJob(rng, 0, 0, time.Hour)
	r.Observe(core.Event{Node: 1, Kind: core.SpanComplete, Job: a})
	r.Observe(core.Event{Node: 2, Kind: core.SpanComplete, Job: b})
	res := r.Result("t", 1, 2, time.Hour, time.Minute)
	if res.LoadJainIndex < 0.999 || res.LoadJainIndex > 1.001 {
		t.Fatalf("Jain = %v, want 1 for perfectly even load", res.LoadJainIndex)
	}
	// One node doing everything out of 4 → J = 1/4.
	r2 := NewRecorder()
	r2.Observe(core.Event{Node: 1, Kind: core.SpanComplete, Job: completedJob(rng, 0, 0, time.Hour)})
	r2.Observe(core.Event{Node: 1, Kind: core.SpanComplete, Job: completedJob(rng, 0, 0, time.Hour)})
	res2 := r2.Result("t", 1, 4, time.Hour, time.Minute)
	if res2.LoadJainIndex < 0.249 || res2.LoadJainIndex > 0.251 {
		t.Fatalf("Jain = %v, want 0.25 for one-of-four hot spot", res2.LoadJainIndex)
	}
}
