package core

import (
	"math/rand"
	"time"

	"github.com/smartgrid/aria/internal/overlay"
)

// Cancel revokes a scheduled callback; it reports whether the revocation
// took effect (false when the callback already ran or was cancelled).
type Cancel func() bool

// Env is a node's binding to the outside world — virtual or real time,
// message delivery, the overlay neighborhood, and randomness. The
// discrete-event simulator and the live transports provide different
// implementations; the protocol engine is agnostic.
//
// Implementations must deliver Send asynchronously (never calling back into
// the sending node synchronously) and may drop messages to dead nodes.
type Env interface {
	// Now is the current time, measured from deployment start.
	Now() time.Duration

	// Schedule runs fn after delay on the node's execution context.
	Schedule(delay time.Duration, fn func()) Cancel

	// Send delivers m to the given node asynchronously.
	Send(to overlay.NodeID, m Message)

	// Neighbors lists the node's current overlay neighbors.
	Neighbors() []overlay.NodeID

	// Rand is the node's random source. Under the simulator this is the
	// shared deterministic engine source.
	Rand() *rand.Rand
}

// MembershipEnv is an optional extension of Env giving the membership plane
// write access to the node's overlay neighborhood: pruning the link to a
// confirmed-dead neighbor and reconnecting to a neighbor-of-neighbor to
// repair degree. Environments that do not implement it still run the
// detector (suspect/dead verdicts and flood recovery work everywhere) but
// perform no topology surgery. The node detects support once at
// construction with a type assertion.
type MembershipEnv interface {
	// PruneLink removes the overlay link to a confirmed-dead peer.
	PruneLink(peer overlay.NodeID)

	// Reconnect adds an overlay link to the given peer, refusing when
	// either endpoint already has maxDegree links (0 = unbounded) or the
	// peer is unreachable. It reports whether a link was created.
	Reconnect(peer overlay.NodeID, maxDegree int) bool
}
