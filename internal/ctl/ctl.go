// Package ctl is the control-plane API of a live grid node: a tiny
// JSON-over-TCP request/response protocol that lets operators submit jobs
// to a node (making it the ARiA initiator) and inspect its state. It is
// what cmd/ariactl speaks to cmd/ariad.
package ctl

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/resource"
	"github.com/smartgrid/aria/internal/trace"
)

// Op selects a control operation.
type Op string

// Control operations.
const (
	OpSubmit    Op = "submit"
	OpStatus    Op = "status"
	OpQueue     Op = "queue"
	OpTrace     Op = "trace"
	OpDirectory Op = "directory"
	OpMembers   Op = "members"
)

// Request is one control-plane request.
type Request struct {
	Op Op `json:"op"`

	// Submit fields.
	Arch        string `json:"arch,omitempty"`
	OS          string `json:"os,omitempty"`
	MinMemoryGB int    `json:"minMemoryGB,omitempty"`
	MinDiskGB   int    `json:"minDiskGB,omitempty"`
	// ERT is a Go duration string ("2h30m").
	ERT string `json:"ert,omitempty"`
	// Deadline, when non-empty, is a duration from now ("10h") and makes
	// the job deadline-class.
	Deadline string `json:"deadline,omitempty"`
	Priority int    `json:"priority,omitempty"`

	// StartAfter, when non-empty, is an advance reservation: a duration
	// from now before which the job may not start ("30m").
	StartAfter string `json:"startAfter,omitempty"`

	// UUID selects the job for trace queries.
	UUID string `json:"uuid,omitempty"`
}

// Response is one control-plane reply.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`

	// Submit reply.
	UUID string `json:"uuid,omitempty"`

	// Status reply.
	NodeID   int32  `json:"nodeId,omitempty"`
	Profile  string `json:"profile,omitempty"`
	Policy   string `json:"policy,omitempty"`
	QueueLen int    `json:"queueLen,omitempty"`
	Busy     bool   `json:"busy,omitempty"`
	Alive    bool   `json:"alive,omitempty"`

	// Queue reply: the running job (if any) and the queued job UUIDs in
	// scheduled order.
	RunningUUID string   `json:"runningUUID,omitempty"`
	Queued      []string `json:"queued,omitempty"`

	// Trace reply: the number of span events this node retains for the
	// job and their causal tree, rendered one span per line.
	TraceCount int    `json:"traceCount,omitempty"`
	Tree       string `json:"tree,omitempty"`

	// Directory reply: the node's live resource-directory entries in
	// ascending node-ID order.
	Directory []DirectoryEntry `json:"directory,omitempty"`

	// Members reply: the node's liveness verdict for every tracked peer
	// in ascending node-ID order (empty when the membership plane is
	// off). Soak auditors poll this for convergence after a heal.
	Members []MemberEntry `json:"members,omitempty"`
}

// MemberEntry is one peer's liveness verdict in a members reply.
type MemberEntry struct {
	NodeID int32  `json:"nodeId"`
	State  string `json:"state"` // "alive", "suspect", or "dead"
}

// DirectoryEntry is one cached remote profile in a directory reply.
type DirectoryEntry struct {
	NodeID      int32  `json:"nodeId"`
	Profile     string `json:"profile"`
	Incarnation uint64 `json:"incarnation"`
	// Age is how stale the entry is (duration string, e.g. "42s").
	Age string `json:"age"`
	// Load is the cached running+queued job hint, as stale as Age says.
	Load int `json:"load"`
}

// TraceSource serves retained trace-plane events for trace queries; a
// *trace.Ring or *trace.Collector satisfies it.
type TraceSource interface {
	ByUUID(uuid job.UUID) []core.Event
}

// Server answers control requests for one protocol node.
type Server struct {
	node  *core.Node
	clock func() time.Duration
	ln    net.Listener
	wg    sync.WaitGroup

	mu    sync.Mutex
	rng   *rand.Rand
	trace TraceSource
}

// NewServer starts serving control requests on ln for node. clock supplies
// the node's notion of now (submission timestamps); rng feeds job UUIDs.
func NewServer(ln net.Listener, node *core.Node, clock func() time.Duration, rng *rand.Rand) *Server {
	s := &Server{node: node, clock: clock, ln: ln, rng: rng}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr reports the listener address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetTraceSource arms trace queries with the node's retained span events.
// Without a source, OpTrace reports that tracing is disabled.
func (s *Server) SetTraceSource(ts TraceSource) {
	s.mu.Lock()
	s.trace = ts
	s.mu.Unlock()
}

// Close stops the listener and waits for in-flight requests.
func (s *Server) Close() error {
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() { _ = conn.Close() }()
			s.serve(conn)
		}()
	}
}

func (s *Server) serve(conn net.Conn) {
	dec := json.NewDecoder(conn)
	enc := json.NewEncoder(conn)
	var req Request
	if err := dec.Decode(&req); err != nil {
		_ = enc.Encode(Response{Error: fmt.Sprintf("decode request: %v", err)})
		return
	}
	_ = enc.Encode(s.Handle(req))
}

// Handle executes one control request.
func (s *Server) Handle(req Request) Response {
	switch req.Op {
	case OpSubmit:
		return s.handleSubmit(req)
	case OpStatus:
		return Response{
			OK:       true,
			NodeID:   int32(s.node.ID()),
			Profile:  s.node.Profile().String(),
			Policy:   s.node.Policy().String(),
			QueueLen: s.node.QueueLen(),
			Busy:     s.node.Busy(),
			Alive:    s.node.Alive(),
		}
	case OpQueue:
		resp := Response{OK: true, NodeID: int32(s.node.ID())}
		if uuid, ok := s.node.Running(); ok {
			resp.RunningUUID = string(uuid)
		}
		for _, uuid := range s.node.QueuedJobs() {
			resp.Queued = append(resp.Queued, string(uuid))
		}
		return resp
	case OpTrace:
		return s.handleTrace(req)
	case OpDirectory:
		resp := Response{OK: true, NodeID: int32(s.node.ID())}
		for _, d := range s.node.DirectorySnapshot() {
			resp.Directory = append(resp.Directory, DirectoryEntry{
				NodeID:      int32(d.Node),
				Profile:     d.Profile.String(),
				Incarnation: d.Incarnation,
				Age:         d.Age.String(),
				Load:        d.Load,
			})
		}
		return resp
	case OpMembers:
		resp := Response{OK: true, NodeID: int32(s.node.ID())}
		for _, p := range s.node.MembershipSnapshot() {
			resp.Members = append(resp.Members, MemberEntry{
				NodeID: int32(p.Peer),
				State:  p.State,
			})
		}
		return resp
	default:
		return Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

func (s *Server) handleTrace(req Request) Response {
	s.mu.Lock()
	ts := s.trace
	s.mu.Unlock()
	if ts == nil {
		return Response{Error: "tracing not enabled on this node"}
	}
	if req.UUID == "" {
		return Response{Error: "trace query without uuid"}
	}
	uuid := job.UUID(req.UUID)
	events := ts.ByUUID(uuid)
	return Response{
		OK:         true,
		NodeID:     int32(s.node.ID()),
		UUID:       req.UUID,
		TraceCount: len(events),
		Tree:       trace.FormatJob(events, uuid),
	}
}

func (s *Server) handleSubmit(req Request) Response {
	p, err := s.buildProfile(req)
	if err != nil {
		return Response{Error: err.Error()}
	}
	if err := s.node.Submit(p); err != nil {
		return Response{Error: err.Error()}
	}
	return Response{OK: true, UUID: string(p.UUID)}
}

func (s *Server) buildProfile(req Request) (job.Profile, error) {
	arch, err := resource.ParseArchitecture(req.Arch)
	if err != nil {
		return job.Profile{}, err
	}
	osKind, err := resource.ParseOS(req.OS)
	if err != nil {
		return job.Profile{}, err
	}
	ert, err := time.ParseDuration(req.ERT)
	if err != nil {
		return job.Profile{}, fmt.Errorf("parse ert: %w", err)
	}
	now := s.clock()
	p := job.Profile{
		UUID: s.newUUID(),
		Req: resource.Requirements{
			Arch: arch, OS: osKind,
			MinMemoryGB: req.MinMemoryGB, MinDiskGB: req.MinDiskGB,
		},
		ERT:         ert,
		Class:       job.ClassBatch,
		SubmittedAt: now,
		Priority:    req.Priority,
	}
	if req.Deadline != "" {
		slack, err := time.ParseDuration(req.Deadline)
		if err != nil {
			return job.Profile{}, fmt.Errorf("parse deadline: %w", err)
		}
		p.Class = job.ClassDeadline
		p.Deadline = now + slack
	}
	if req.StartAfter != "" {
		wait, err := time.ParseDuration(req.StartAfter)
		if err != nil {
			return job.Profile{}, fmt.Errorf("parse startAfter: %w", err)
		}
		p.EarliestStart = now + wait
	}
	if err := p.Validate(); err != nil {
		return job.Profile{}, err
	}
	return p, nil
}

func (s *Server) newUUID() job.UUID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return job.NewUUID(s.rng)
}

// Call dials a control endpoint and performs one request.
func Call(addr string, req Request, timeout time.Duration) (Response, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return Response{}, err
	}
	defer func() { _ = conn.Close() }()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return Response{}, err
	}
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		return Response{}, fmt.Errorf("send request: %w", err)
	}
	var resp Response
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		return Response{}, fmt.Errorf("read response: %w", err)
	}
	return resp, nil
}
