// Package msg defines the request/reply model shared by every protocol in the
// repository: client requests, request identifiers, and application replies.
package msg

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"abstractbft/internal/authn"
	"abstractbft/internal/ids"
	"abstractbft/internal/obs"
)

// Request is a client request to the replicated state machine. Requests are
// elements of REQ = C x CMD x N in the Abstract specification: a client
// identifier, a command, and a client-local request identifier (Timestamp).
type Request struct {
	// Client is the identifier of the invoking client.
	Client ids.ProcessID
	// Timestamp is the client's unique, monotonically increasing request
	// identifier (t_c in the paper).
	Timestamp uint64
	// Command is the opaque state machine command (o in the paper).
	Command []byte
	// ReadOnly marks requests that do not modify the state machine and may
	// be executed using read-only optimizations.
	ReadOnly bool
	// Trace is the wire-propagated distributed-tracing context: zero (the
	// common case) for unsampled requests, a head-sampled trace ID plus parent
	// span otherwise. It rides on the request through every protocol message,
	// batch, and retransmission, so one sampled request's spans share a trace
	// ID across processes. Trace is deliberately EXCLUDED from Marshal,
	// Digest, and Equal: tracing is an observability overlay and must never
	// change a request's agreement identity (digests, MACs, signatures, and
	// duplicate detection are all computed over the Marshal bytes).
	//
	//wire:nodigest
	Trace obs.TraceContext
}

// RequestID uniquely identifies a request: well-formed clients never reuse a
// timestamp.
type RequestID struct {
	Client    ids.ProcessID
	Timestamp uint64
}

// ID returns the request's identifier.
func (r Request) ID() RequestID { return RequestID{Client: r.Client, Timestamp: r.Timestamp} }

// String renders the identifier for logs and test failures.
func (id RequestID) String() string { return fmt.Sprintf("%v/%d", id.Client, id.Timestamp) }

// requestHeaderLen is the size of the fixed header Marshal writes before the
// command bytes: client, timestamp, command length, read-only flag.
const requestHeaderLen = 21

// header returns the fixed-size prefix of the deterministic encoding.
//
//abstractbft:noalloc
func (r Request) header() (hdr [requestHeaderLen]byte) {
	binary.BigEndian.PutUint32(hdr[0:4], uint32(r.Client))
	binary.BigEndian.PutUint64(hdr[4:12], r.Timestamp)
	binary.BigEndian.PutUint64(hdr[12:20], uint64(len(r.Command)))
	if r.ReadOnly {
		hdr[20] = 1
	}
	return hdr
}

// Marshal encodes the request deterministically; the encoding is the input of
// digests, MACs, and signatures computed over requests.
func (r Request) Marshal() []byte {
	hdr := r.header()
	out := make([]byte, 0, requestHeaderLen+len(r.Command))
	out = append(out, hdr[:]...)
	return append(out, r.Command...)
}

// UnmarshalRequest decodes a request encoded with Marshal.
func UnmarshalRequest(data []byte) (Request, error) {
	if len(data) < requestHeaderLen {
		return Request{}, fmt.Errorf("msg: request too short: %d bytes", len(data))
	}
	var r Request
	r.Client = ids.ProcessID(binary.BigEndian.Uint32(data[0:4]))
	r.Timestamp = binary.BigEndian.Uint64(data[4:12])
	n := binary.BigEndian.Uint64(data[12:20])
	r.ReadOnly = data[20] == 1
	if uint64(len(data)-requestHeaderLen) != n {
		return Request{}, fmt.Errorf("msg: request body length mismatch: have %d want %d", len(data)-requestHeaderLen, n)
	}
	r.Command = append([]byte(nil), data[requestHeaderLen:]...)
	return r, nil
}

// Digest returns the collision-resistant digest of the request: the hash of
// its Marshal encoding, computed without materializing the encoding.
//
//abstractbft:noalloc
func (r Request) Digest() authn.Digest {
	hdr := r.header()
	return authn.HashConcat(hdr[:], r.Command)
}

// Equal reports whether two requests are identical (same identifier and same
// command bytes).
func (r Request) Equal(o Request) bool {
	return r.Client == o.Client && r.Timestamp == o.Timestamp && r.ReadOnly == o.ReadOnly &&
		bytes.Equal(r.Command, o.Command)
}

// Clone returns a deep copy of the request.
func (r Request) Clone() Request {
	c := r
	c.Command = append([]byte(nil), r.Command...)
	return c
}
