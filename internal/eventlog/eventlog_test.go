package eventlog

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/resource"
)

func sampleJob() *job.Job {
	j := job.New(job.Profile{
		UUID: "0123456789abcdef0123456789abcdef",
		Req: resource.Requirements{
			Arch: resource.ArchAMD64, OS: resource.OSLinux, MinMemoryGB: 1, MinDiskGB: 1,
		},
		ERT:   time.Hour,
		Class: job.ClassBatch,
	})
	j.State = job.StateCompleted
	j.StartedAt = 30 * time.Minute
	j.CompletedAt = 90 * time.Minute
	return j
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	j := sampleJob()
	// Span zero: lifecycle lines only, as an untraced stream logs them.
	for _, ev := range []core.Event{
		{At: time.Minute, Node: 3, Kind: core.SpanSubmit, UUID: j.UUID},
		{At: 2 * time.Minute, Node: 3, Kind: core.SpanAssign, UUID: j.UUID, Peer: 7, Cost: 1234},
		{At: 3 * time.Minute, Node: 7, Kind: core.SpanReschedule, UUID: j.UUID, Peer: 9, Cost: 900},
		{At: 30 * time.Minute, Node: 9, Kind: core.SpanStart, UUID: j.UUID},
		{At: 90 * time.Minute, Node: 9, Kind: core.SpanComplete, UUID: j.UUID, Job: j},
		{At: 91 * time.Minute, Node: 3, Kind: core.SpanFail, UUID: "deadbeefdeadbeefdeadbeefdeadbeef", Reason: "no candidate found"},
	} {
		w.Observe(ev)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []Kind{
		KindSubmitted, KindAssigned, KindRescheduled,
		KindStarted, KindCompleted, KindFailed,
	}
	if len(events) != len(wantKinds) {
		t.Fatalf("events = %d, want %d", len(events), len(wantKinds))
	}
	for i, k := range wantKinds {
		if events[i].Kind != k {
			t.Fatalf("event %d kind %s, want %s", i, events[i].Kind, k)
		}
	}
	if events[1].From != 3 || events[1].To != 7 || events[1].Cost != 1234 {
		t.Fatalf("assigned event wrong: %+v", events[1])
	}
	if events[4].WaitSec != 1800 || events[4].ExecSec != 3600 {
		t.Fatalf("completed event wrong: %+v", events[4])
	}
	if events[5].Reason != "no candidate found" {
		t.Fatalf("failed event wrong: %+v", events[5])
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("{not json}\n")); err == nil {
		t.Fatal("Read accepted garbage")
	}
	events, err := Read(strings.NewReader("\n\n"))
	if err != nil || len(events) != 0 {
		t.Fatalf("blank stream: %v %v", events, err)
	}
}

// failingWriter errors after n bytes.
type failingWriter struct{ remaining int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.remaining <= 0 {
		return 0, errors.New("disk full")
	}
	f.remaining -= len(p)
	return len(p), nil
}

func TestWriterRecordsError(t *testing.T) {
	w := NewWriter(&failingWriter{remaining: 1})
	j := sampleJob()
	for i := 0; i < 1000; i++ {
		w.Observe(core.Event{At: time.Minute, Node: 1, Kind: core.SpanStart, UUID: j.UUID})
	}
	if w.Flush() == nil {
		t.Fatal("write error never surfaced")
	}
	if w.Err() == nil {
		t.Fatal("Err() lost the error")
	}
}

// TestWriterSpanLines pins where lifecycle lines sit next to span lines, and
// which events write nothing.
func TestWriterSpanLines(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	j := sampleJob()
	for _, ev := range []core.Event{
		{Node: 1, Kind: core.SpanSubmit, UUID: j.UUID, Span: 1},
		{Node: 1, Kind: core.SpanAssign, UUID: j.UUID, Span: 2, Peer: 2},
		{Node: 1, Kind: core.SpanAssign, UUID: j.UUID, Span: 3, Peer: 3, Copy: true},
		{Node: 1, Kind: core.KindPeerBusy, Peer: 3},
		{Node: 2, Kind: core.SpanStart, UUID: j.UUID, Span: 4},
		{Node: 2, Kind: core.SpanComplete, UUID: j.UUID, Span: 5, Job: j},
		{Node: 1, Kind: core.SpanFail, UUID: j.UUID, Span: 6, Reason: "no candidate found"},
		{Node: 1, Kind: core.KindCommitGranted, UUID: j.UUID, Peer: 4, Attempt: 1},
	} {
		w.Observe(ev)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range events {
		line := string(e.Kind)
		if e.Kind == KindSpan {
			line += ":" + string(e.Span)
		}
		if e.Reason != "" {
			line += "(" + e.Reason + ")"
		}
		got = append(got, line)
	}
	want := "submitted span:submit assigned span:assign span:assign span:start started " +
		"span:complete completed span:fail failed(no candidate found) assigned"
	if strings.Join(got, " ") != want {
		t.Fatalf("lines:\n got %s\nwant %s", strings.Join(got, " "), want)
	}
}

func TestEventsOverlaySimulation(t *testing.T) {
	// The writer plugs in anywhere an Observer does — use one as a
	// node's observer and confirm the stream parses.
	var buf bytes.Buffer
	var obs core.Observer = NewWriter(&buf)
	j := sampleJob()
	obs.Observe(core.Event{At: 0, Node: 1, Kind: core.SpanSubmit, UUID: j.UUID})
	obs.Observe(core.Event{At: time.Hour, Node: 1, Kind: core.SpanComplete, UUID: j.UUID, Job: j})
	if err := obs.(*Writer).Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[1].At != 3600 {
		t.Fatalf("events %+v", events)
	}
}
