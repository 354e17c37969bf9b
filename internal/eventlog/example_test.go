package eventlog_test

import (
	"bytes"
	"fmt"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/eventlog"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/resource"
)

// A Writer plugs in anywhere a core.Observer does and emits one JSON line
// per lifecycle step (plus one per span when the events carry span IDs);
// Read parses the stream back.
func ExampleWriter() {
	var buf bytes.Buffer
	w := eventlog.NewWriter(&buf)

	j := job.New(job.Profile{
		UUID: "0123456789abcdef0123456789abcdef",
		Req: resource.Requirements{
			Arch: resource.ArchAMD64, OS: resource.OSLinux,
			MinMemoryGB: 1, MinDiskGB: 1,
		},
		ERT:   time.Hour,
		Class: job.ClassBatch,
	})
	w.Observe(core.Event{At: time.Minute, Node: 3, Kind: core.SpanSubmit, UUID: j.UUID})
	w.Observe(core.Event{At: 2 * time.Minute, Node: 3, Kind: core.SpanAssign, UUID: j.UUID, Peer: 7, Cost: 3600})
	j.State = job.StateCompleted
	j.StartedAt = 10 * time.Minute
	j.CompletedAt = 70 * time.Minute
	w.Observe(core.Event{At: 70 * time.Minute, Node: 7, Kind: core.SpanComplete, UUID: j.UUID, Job: j})
	if err := w.Flush(); err != nil {
		fmt.Println("flush:", err)
		return
	}

	events, err := eventlog.Read(&buf)
	if err != nil {
		fmt.Println("read:", err)
		return
	}
	for _, e := range events {
		fmt.Printf("%s at %.0fs\n", e.Kind, e.At)
	}
	// Output:
	// submitted at 60s
	// assigned at 120s
	// completed at 4200s
}
