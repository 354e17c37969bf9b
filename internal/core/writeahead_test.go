package core_test

import (
	"errors"
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
	"github.com/smartgrid/aria/internal/wal"
)

// failNthStore is an in-memory journal store whose n-th append fails.
type failNthStore struct {
	wal.MemStore
	n, appends int
}

func (s *failNthStore) AppendJournal(frame []byte) error {
	s.appends++
	if s.appends == s.n {
		return errors.New("disk gone")
	}
	return s.MemStore.AppendJournal(frame)
}

// kindTape records the kind of every event in emission order.
type kindTape struct {
	mu    sync.Mutex
	kinds []core.Kind
}

func (t *kindTape) Observe(ev core.Event) {
	t.mu.Lock()
	t.kinds = append(t.kinds, ev.Kind)
	t.mu.Unlock()
}

func (t *kindTape) snapshot() []core.Kind {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]core.Kind(nil), t.kinds...)
}

// TestWriteAheadBeforeObservable pins the journal's write-ahead contract
// against every sink: when the append of a job's enqueue, start, or
// completion fails, the journal's OnError hook (a daemon dies there) must
// fire before any observer saw that transition. A lone node self-assigns one
// job, so its journal appends exactly enqueue, start, complete in turn.
func TestWriteAheadBeforeObservable(t *testing.T) {
	for i, kind := range []core.Kind{core.SpanEnqueue, core.SpanStart, core.SpanComplete} {
		t.Run(string(kind), func(t *testing.T) {
			engine := sim.NewEngine(1)
			graph := overlay.NewGraph()
			graph.AddNode(0)
			cluster := transport.NewSimCluster(engine, graph, overlay.FixedLatency(time.Millisecond))
			tape := &kindTape{}
			n, err := cluster.AddNode(0, amd64Node(1.5), sched.FCFS, core.DefaultConfig(), tape, job.ARTModel{Mode: job.DriftNone})
			if err != nil {
				t.Fatal(err)
			}
			var seen []core.Kind
			failed := false
			n.AttachJournal(wal.New(&failNthStore{n: i + 1}, wal.Options{OnError: func(error) {
				failed = true
				seen = tape.snapshot()
			}}))
			n.Start()
			if err := n.Submit(amd64Job(rand.New(rand.NewSource(3)), time.Minute)); err != nil {
				t.Fatal(err)
			}
			engine.Run(time.Hour)
			if !failed {
				t.Fatal("the journal append never failed")
			}
			for _, k := range seen {
				if k == kind {
					t.Fatalf("a sink saw %s before its journal append failed: %v", kind, seen)
				}
			}
			if after := tape.snapshot(); after[len(after)-1] != core.SpanComplete {
				t.Fatalf("job did not run to completion: %v", after)
			}
		})
	}
}
