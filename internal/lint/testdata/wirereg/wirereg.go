// Package wirereg is the analyzer fixture for the wire-type registry: the
// binary codec's tag table, checked against what is sent and what is
// round-trip audited.
package wirereg

import (
	"abstractbft/internal/ids"
	"abstractbft/internal/transport"
)

// Stray is handed to an Endpoint but has no wirecodec tag arm.
type Stray struct{ N uint64 }

func send(ep transport.Endpoint, to ids.ProcessID) {
	ep.Send(to, &Stray{N: 1}) // want "no tag arm"
}
