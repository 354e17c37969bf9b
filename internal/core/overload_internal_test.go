package core

import (
	"errors"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/job"
)

// overloadCounter extends the delivery counter with the overload-control
// plane's events.
type overloadCounter struct {
	*deliveryCounter

	requestsShed  int
	assignsShed   int
	reflooded     int
	reenqueued    int
	peersBusy     int
	submitRejects int
}

var _ Observer = (*overloadCounter)(nil)

func newOverloadCounter() *overloadCounter {
	return &overloadCounter{deliveryCounter: newDeliveryCounter()}
}

func (c *overloadCounter) Observe(ev Event) {
	c.deliveryCounter.Observe(ev)
	switch {
	case ev.Kind == SpanBusy && ev.Msg == MsgRequest:
		c.requestsShed++
	case ev.Kind == SpanBusy:
		c.assignsShed++
	case ev.Kind == SpanShed && ev.Requeued:
		c.reenqueued++
	case ev.Kind == SpanShed:
		c.reflooded++
	case ev.Kind == KindPeerBusy:
		c.peersBusy++
	case ev.Kind == KindSubmitRejected:
		c.submitRejects++
	}
}

// sheddingConfig arms the bounded run queue at depth 1 (one running job
// saturates a provider) with rescheduling off.
func sheddingConfig() Config {
	cfg := DefaultConfig()
	cfg.InformJobs = 0
	cfg.MaxQueuedJobs = 1
	return cfg
}

// bigJobERT is bigJob with a chosen running-time estimate.
func bigJobERT(uuid job.UUID, ert time.Duration) job.Profile {
	p := bigJob(uuid)
	p.ERT = ert
	return p
}

func TestRetryDelayFixedWithoutCap(t *testing.T) {
	net := newLossyNet(1)
	cfg := sheddingConfig()
	n := net.addNode(t, 1, smallProfile(), cfg, nil)
	for retries := 1; retries <= 10; retries++ {
		if got := n.retryDelay(retries); got != cfg.RetryBackoff {
			t.Fatalf("retryDelay(%d) = %v, want fixed %v", retries, got, cfg.RetryBackoff)
		}
	}
}

func TestRetryDelayCappedAndJittered(t *testing.T) {
	net := newLossyNet(2)
	cfg := sheddingConfig()
	cfg.RetryBackoff = 30 * time.Second
	cfg.RetryBackoffCap = 4 * time.Minute
	n := net.addNode(t, 1, smallProfile(), cfg, nil)
	for retries := 1; retries <= 80; retries++ {
		// The un-jittered ladder: base doubling per retry, clamped.
		d := cfg.RetryBackoff << uint(min(retries-1, retryBackoffShiftMax))
		if d <= 0 || d > cfg.RetryBackoffCap {
			d = cfg.RetryBackoffCap
		}
		for draw := 0; draw < 20; draw++ {
			got := n.retryDelay(retries)
			if got < d/2 || got >= d {
				t.Fatalf("retryDelay(%d) = %v, want in [%v, %v)", retries, got, d/2, d)
			}
		}
	}
	// Deep retry counts must not overflow the shift: the delay stays at
	// the cap, never collapses to zero or goes negative.
	for _, retries := range []int{100, 1000, 1 << 20} {
		got := n.retryDelay(retries)
		if got < cfg.RetryBackoffCap/2 || got >= cfg.RetryBackoffCap {
			t.Fatalf("retryDelay(%d) = %v, want in [%v, %v)", retries, got,
				cfg.RetryBackoffCap/2, cfg.RetryBackoffCap)
		}
	}
}

func TestSubmitAdmissionControl(t *testing.T) {
	net := newLossyNet(3)
	cfg := DefaultConfig()
	cfg.InformJobs = 0
	cfg.MaxPendingSubmits = 1
	counter := newOverloadCounter()
	initiator := net.addNode(t, 1, smallProfile(), cfg, counter)
	net.addNode(t, 2, bigProfile(), cfg, counter)
	net.connect(1, 2)

	if err := initiator.Submit(bigJobERT("a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1", time.Minute)); err != nil {
		t.Fatal(err)
	}
	err := initiator.Submit(bigJobERT("a2a2a2a2a2a2a2a2a2a2a2a2a2a2a2a2", time.Minute))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second concurrent submit: err = %v, want ErrOverloaded", err)
	}
	if counter.submitRejects != 1 {
		t.Fatalf("submitRejects = %d, want 1", counter.submitRejects)
	}

	// Once the first discovery resolves, the slot frees and a new
	// submission is admitted again.
	net.engine.Run(30 * time.Minute)
	if err := initiator.Submit(bigJobERT("a3a3a3a3a3a3a3a3a3a3a3a3a3a3a3a3", time.Minute)); err != nil {
		t.Fatalf("post-drain submit rejected: %v", err)
	}
	net.engine.Run(time.Hour)
	if len(counter.completed) != 2 {
		t.Fatalf("completed %d jobs, want 2 admitted jobs done (failed=%d)", len(counter.completed), counter.failed)
	}
}

// TestShedAssignRefloodsFromInitiator drives the full shed path without the
// ack handshake: two initiators win offers from the same depth-1 provider,
// the loser's ASSIGN is shed with BUSY, and the initiator re-floods until
// capacity frees. Nothing is lost and nothing double-starts.
func TestShedAssignRefloodsFromInitiator(t *testing.T) {
	net := newLossyNet(4)
	cfg := sheddingConfig()
	counter := newOverloadCounter()
	i1 := net.addNode(t, 1, smallProfile(), cfg, counter)
	i2 := net.addNode(t, 2, smallProfile(), cfg, counter)
	net.addNode(t, 3, bigProfile(), cfg, counter)
	net.connect(1, 3)
	net.connect(2, 3)

	p1 := bigJobERT("b1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b1", 2*time.Minute)
	p2 := bigJobERT("b2b2b2b2b2b2b2b2b2b2b2b2b2b2b2b2", 2*time.Minute)
	if err := i1.Submit(p1); err != nil {
		t.Fatal(err)
	}
	if err := i2.Submit(p2); err != nil {
		t.Fatal(err)
	}
	net.engine.Run(time.Hour)

	for _, p := range []job.Profile{p1, p2} {
		if counter.completed[p.UUID] != 1 {
			t.Fatalf("job %s completions = %d, want 1 (failed=%d)",
				p.UUID, counter.completed[p.UUID], counter.failed)
		}
		if counter.starts[p.UUID] != 1 {
			t.Fatalf("job %s starts = %d, want exactly 1", p.UUID, counter.starts[p.UUID])
		}
	}
	if counter.assignsShed != 1 {
		t.Fatalf("assignsShed = %d, want 1", counter.assignsShed)
	}
	if counter.reflooded != 1 {
		t.Fatalf("reflooded = %d, want 1 (reenqueued=%d)", counter.reflooded, counter.reenqueued)
	}
	if counter.peersBusy == 0 {
		t.Fatal("shed BUSY never demoted the provider at the initiator")
	}
	// The shed job's re-floods hit the still-saturated provider, which
	// answers with advisory BUSY instead of an offer.
	if counter.requestsShed == 0 {
		t.Fatal("saturated provider never shed a REQUEST")
	}
	if net.countType(MsgBusy) < 2 {
		t.Fatalf("BUSY transmissions = %d, want at least one shed and one advisory", net.countType(MsgBusy))
	}
}

// TestShedAssignClosesAckHandshake runs the same contention with the ASSIGN
// handshake armed: the BUSY must close the open handshake (no retransmission
// ladder, no fallback recovery) and re-dispatch exactly once.
func TestShedAssignClosesAckHandshake(t *testing.T) {
	net := newLossyNet(5)
	cfg := sheddingConfig()
	cfg.AssignAck = true
	counter := newOverloadCounter()
	i1 := net.addNode(t, 1, smallProfile(), cfg, counter)
	i2 := net.addNode(t, 2, smallProfile(), cfg, counter)
	net.addNode(t, 3, bigProfile(), cfg, counter)
	net.connect(1, 3)
	net.connect(2, 3)

	p1 := bigJobERT("c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1", 2*time.Minute)
	p2 := bigJobERT("c2c2c2c2c2c2c2c2c2c2c2c2c2c2c2c2", 2*time.Minute)
	if err := i1.Submit(p1); err != nil {
		t.Fatal(err)
	}
	if err := i2.Submit(p2); err != nil {
		t.Fatal(err)
	}
	net.engine.Run(time.Hour)

	for _, p := range []job.Profile{p1, p2} {
		if counter.completed[p.UUID] != 1 || counter.starts[p.UUID] != 1 {
			t.Fatalf("job %s: completions=%d starts=%d, want 1/1 (failed=%d)",
				p.UUID, counter.completed[p.UUID], counter.starts[p.UUID], counter.failed)
		}
	}
	if counter.assignsShed != 1 || counter.reflooded != 1 {
		t.Fatalf("assignsShed=%d reflooded=%d, want 1/1", counter.assignsShed, counter.reflooded)
	}
	if counter.retried != 0 {
		t.Fatalf("ASSIGN retransmissions = %d, want 0: BUSY closes the handshake", counter.retried)
	}
	if counter.recovered != 0 {
		t.Fatalf("fallback recoveries = %d, want 0: BUSY pre-empts the retry ladder", counter.recovered)
	}
}

// TestAdvisoryBusyOnRequest pins the cheap half of shedding: a saturated
// provider that satisfies a flooded REQUEST answers BUSY instead of ACCEPT,
// and the initiator's discovery succeeds on a later retry once the provider
// drains.
func TestAdvisoryBusyOnRequest(t *testing.T) {
	net := newLossyNet(6)
	cfg := sheddingConfig()
	counter := newOverloadCounter()
	initiator := net.addNode(t, 1, smallProfile(), cfg, counter)
	net.addNode(t, 2, bigProfile(), cfg, counter)
	net.connect(1, 2)

	p1 := bigJobERT("d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1", 2*time.Minute)
	p2 := bigJobERT("d2d2d2d2d2d2d2d2d2d2d2d2d2d2d2d2", 2*time.Minute)
	if err := initiator.Submit(p1); err != nil {
		t.Fatal(err)
	}
	var submitErr error
	// Submit the second job once the first occupies the provider.
	net.engine.Schedule(30*time.Second, func() { submitErr = initiator.Submit(p2) })
	net.engine.Run(time.Hour)

	if submitErr != nil {
		t.Fatalf("delayed submit: %v", submitErr)
	}
	for _, p := range []job.Profile{p1, p2} {
		if counter.completed[p.UUID] != 1 {
			t.Fatalf("job %s completions = %d, want 1 (failed=%d)",
				p.UUID, counter.completed[p.UUID], counter.failed)
		}
	}
	if counter.requestsShed == 0 {
		t.Fatal("saturated provider never answered a REQUEST with BUSY")
	}
	if counter.peersBusy == 0 {
		t.Fatal("advisory BUSY never reached the initiator's demotion path")
	}
	if counter.assignsShed != 0 {
		t.Fatalf("assignsShed = %d, want 0: no ASSIGN was ever sent to a saturated node", counter.assignsShed)
	}
}

// TestHandleBusyReschedulePath white-boxes the Via classification: a shed
// BUSY whose Via names another node means this node was the rescheduling
// sender, so it takes the job back into its own queue.
func TestHandleBusyReschedulePath(t *testing.T) {
	net := newLossyNet(7)
	cfg := DefaultConfig()
	cfg.InformJobs = 0
	counter := newOverloadCounter()
	n := net.addNode(t, 1, bigProfile(), cfg, counter)

	p := bigJobERT("e1e1e1e1e1e1e1e1e1e1e1e1e1e1e1e1", time.Minute)
	n.HandleMessage(Message{Type: MsgBusy, From: 2, Job: p, Re: MsgAssign, Via: 9})
	if counter.reenqueued != 1 {
		t.Fatalf("reenqueued = %d, want 1 (reflooded=%d)", counter.reenqueued, counter.reflooded)
	}
	// A duplicate BUSY while the job is still held must be idempotent.
	n.HandleMessage(Message{Type: MsgBusy, From: 2, Job: p, Re: MsgAssign, Via: 9})
	if counter.reenqueued != 1 {
		t.Fatalf("duplicate BUSY re-enqueued again: reenqueued = %d", counter.reenqueued)
	}
	// An advisory BUSY only demotes; it never touches the queue.
	n.HandleMessage(Message{Type: MsgBusy, From: 3, Job: p, Re: MsgRequest})
	if counter.reenqueued != 1 || counter.reflooded != 0 {
		t.Fatal("advisory BUSY triggered a re-dispatch")
	}
	net.engine.Run(time.Hour)
	if counter.completed[p.UUID] != 1 {
		t.Fatalf("re-acquired job completions = %d, want 1", counter.completed[p.UUID])
	}
	if counter.starts[p.UUID] != 1 {
		t.Fatalf("re-acquired job starts = %d, want 1", counter.starts[p.UUID])
	}
	if counter.peersBusy < 2 {
		t.Fatalf("peersBusy = %d, want every BUSY to demote its sender", counter.peersBusy)
	}
}

func TestOverloadedNodeNeverSelfOffers(t *testing.T) {
	net := newLossyNet(8)
	cfg := sheddingConfig()
	counter := newOverloadCounter()
	// Two capable nodes: the initiator saturates itself first, so its own
	// discovery must place the second job on the neighbor.
	n1 := net.addNode(t, 1, bigProfile(), cfg, counter)
	net.addNode(t, 2, bigProfile(), cfg, counter)
	net.connect(1, 2)

	p1 := bigJobERT("f1f1f1f1f1f1f1f1f1f1f1f1f1f1f1f1", 30*time.Minute)
	p2 := bigJobERT("f2f2f2f2f2f2f2f2f2f2f2f2f2f2f2f2", 30*time.Minute)
	if err := n1.Submit(p1); err != nil {
		t.Fatal(err)
	}
	// Wait until p1 runs on one of the nodes, then submit p2 from node 1.
	var submitErr error
	net.engine.Schedule(time.Minute, func() { submitErr = n1.Submit(p2) })
	net.engine.Run(3 * time.Hour)

	if submitErr != nil {
		t.Fatalf("second submit: %v", submitErr)
	}
	if len(counter.completed) != 2 {
		t.Fatalf("completed %d, want 2 (failed=%d)", len(counter.completed), counter.failed)
	}
	// Depth bound 1 and two 30m jobs: they can never run on the same node
	// concurrently, and a saturated node never bids for the second job.
	if counter.starts[p1.UUID] != 1 || counter.starts[p2.UUID] != 1 {
		t.Fatalf("starts: p1=%d p2=%d, want 1/1", counter.starts[p1.UUID], counter.starts[p2.UUID])
	}
}
