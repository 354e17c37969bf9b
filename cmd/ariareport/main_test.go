package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/eventlog"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/resource"
)

func writeSampleLog(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "events.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := eventlog.NewWriter(f)
	mk := func(uuid job.UUID) *job.Job {
		j := job.New(job.Profile{
			UUID: uuid,
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
	a := mk("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa")
	b := mk("bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb")
	for _, ev := range []core.Event{
		{At: 0, Node: 1, Kind: core.SpanSubmit, UUID: a.UUID},
		{At: time.Second, Node: 1, Kind: core.SpanAssign, UUID: a.UUID, Peer: 2, Cost: 100},
		{At: time.Minute, Node: 2, Kind: core.SpanReschedule, UUID: a.UUID, Peer: 3, Cost: 50},
		{At: 30 * time.Minute, Node: 3, Kind: core.SpanStart, UUID: a.UUID},
		{At: 90 * time.Minute, Node: 3, Kind: core.SpanComplete, UUID: a.UUID, Job: a},
		{At: time.Minute, Node: 1, Kind: core.SpanSubmit, UUID: b.UUID},
		{At: 2 * time.Minute, Node: 1, Kind: core.SpanFail, UUID: b.UUID, Reason: "no candidate found"},
	} {
		w.Observe(ev)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReportFromLog(t *testing.T) {
	path := writeSampleLog(t)
	var buf bytes.Buffer
	if err := run(&buf, []string{path}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"2 jobs",
		"1 completed, 1 failed, 0 in flight",
		"rescheduling: 1 moves, 0 duplicate executions",
		"completion:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestReportErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{}); err == nil {
		t.Fatal("accepted missing path")
	}
	if err := run(&buf, []string{"/does/not/exist.jsonl"}); err == nil {
		t.Fatal("accepted missing file")
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&buf, []string{empty}); err == nil {
		t.Fatal("accepted empty log")
	}
}
