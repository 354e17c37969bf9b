package eventlog_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/eventlog"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/metrics"
	"github.com/smartgrid/aria/internal/trace"
)

// declaredKinds parses core's event.go for every Kind constant, so a kind
// added there joins the sink table test below without anyone remembering it.
func declaredKinds(t *testing.T) []core.Kind {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "../core/event.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []core.Kind
	for _, decl := range f.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.CONST {
			continue
		}
		for _, spec := range gen.Specs {
			vs := spec.(*ast.ValueSpec)
			if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "Kind" {
				continue
			}
			for _, v := range vs.Values {
				s, err := strconv.Unquote(v.(*ast.BasicLit).Value)
				if err != nil {
					t.Fatal(err)
				}
				kinds = append(kinds, core.Kind(s))
			}
		}
	}
	return kinds
}

// TestEveryKindReachesSinks feeds each event kind to the shared sinks and
// checks what each makes of it: the recorder's result moves for every kind,
// span kinds are retained by the collector and ring and logged as span
// lines, and the writer adds a lifecycle line exactly for the job lifecycle
// steps.
func TestEveryKindReachesSinks(t *testing.T) {
	type want struct {
		span bool // carries a span: retained and logged as a span line
		life bool // adds a lifecycle line to the event log
	}
	table := map[core.Kind]want{
		core.SpanSubmit:            {span: true, life: true},
		core.SpanFloodOrigin:       {span: true},
		core.SpanForward:           {span: true},
		core.SpanDuplicate:         {span: true},
		core.SpanOffer:             {span: true},
		core.SpanOfferRecv:         {span: true},
		core.SpanAssign:            {span: true, life: true},
		core.SpanReschedule:        {span: true, life: true},
		core.SpanEnqueue:           {span: true},
		core.SpanStart:             {span: true, life: true},
		core.SpanComplete:          {span: true, life: true},
		core.SpanRetry:             {span: true},
		core.SpanFallback:          {span: true},
		core.SpanResubmit:          {span: true},
		core.SpanCancel:            {span: true},
		core.SpanLost:              {span: true},
		core.SpanFail:              {span: true, life: true},
		core.SpanSuspect:           {span: true},
		core.SpanPeerDead:          {span: true},
		core.SpanRepair:            {span: true},
		core.SpanRestart:           {span: true},
		core.SpanDirectedProbe:     {span: true},
		core.SpanDirectoryFallback: {span: true},
		core.SpanBusy:              {span: true},
		core.SpanShed:              {span: true},
		core.SpanCommit:            {span: true},
		core.SpanConflict:          {span: true},
		core.SpanCommitFallback:    {span: true},
		core.SpanRecovered:         {span: true},
		core.KindFloodEscalated:    {},
		core.KindRefuted:           {},
		core.KindDirectoryMiss:     {},
		core.KindDirectoryEvicted:  {},
		core.KindPeerBusy:          {},
		core.KindSubmitRejected:    {},
		core.KindCommitGranted:     {life: true},
		core.KindConflictRecv:      {},
		core.KindAssignRecovered:   {},
	}
	kinds := declaredKinds(t)
	if len(kinds) != len(table) {
		t.Fatalf("core declares %d kinds, the table covers %d", len(kinds), len(table))
	}
	result := func(r *metrics.Recorder) string {
		b, err := json.Marshal(r.Result("sinks", 1, 1, time.Hour, time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	empty := result(metrics.NewRecorder())
	j := job.New(job.Profile{UUID: "0123456789abcdef0123456789abcdef", ERT: time.Hour})
	j.StartedAt, j.CompletedAt = time.Minute, time.Hour
	for _, kind := range kinds {
		w, ok := table[kind]
		if !ok {
			t.Errorf("kind %s missing from the sink table", kind)
			continue
		}
		ev := core.Event{
			At: time.Hour, Node: 1, Kind: kind, UUID: j.UUID, Peer: 2,
			Fanout: 1, Attempt: 1, Count: 1, Age: time.Second, Reason: "stale", Job: j,
		}
		if w.span {
			ev.Span = 7
		}
		rec := metrics.NewRecorder()
		var buf bytes.Buffer
		writer := eventlog.NewWriter(&buf)
		collector := trace.NewCollector()
		ring := trace.NewRing(4)
		core.Observers{rec, writer, collector, ring}.Observe(ev)

		if result(rec) == empty {
			t.Errorf("%s: the recorder's result did not move", kind)
		}
		if err := writer.Flush(); err != nil {
			t.Fatal(err)
		}
		lines, err := eventlog.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		wantLines := 0
		if w.span {
			wantLines++
		}
		if w.life {
			wantLines++
		}
		if len(lines) != wantLines {
			t.Errorf("%s: writer logged %d lines, want %d", kind, len(lines), wantLines)
		}
		retained := 0
		if w.span {
			retained = 1
		}
		if collector.Len() != retained || int(ring.Total()) != retained {
			t.Errorf("%s: collector kept %d, ring %d, want %d", kind, collector.Len(), ring.Total(), retained)
		}
	}
}
