package transport

import (
	"errors"
	"io"
)

// Codec serializes envelopes onto a TCP connection. The one implementation is
// the binary codec, wirecodec.Binary(); the interface exists because
// wirecodec imports this package for the Envelope and the Packed wrapper, so
// the TCP transport cannot name the codec directly.
type Codec interface {
	// NewEncoder wraps the write half of a connection. Implementations own
	// their buffering; the transport calls Flush at coalescing boundaries.
	NewEncoder(w io.Writer) StreamEncoder
	// NewDecoder wraps the read half of a connection.
	NewDecoder(r io.Reader) StreamDecoder
}

// StreamEncoder encodes a sequence of envelopes onto one connection.
type StreamEncoder interface {
	// Encode serializes one envelope. An error wrapping ErrUnencodable means
	// only this envelope could not be represented (the stream is still
	// healthy, the envelope is dropped); any other error is fatal to the
	// connection.
	Encode(env *Envelope) error
	// Flush writes out any buffered frames.
	Flush() error
}

// StreamDecoder decodes a sequence of envelopes from one connection.
type StreamDecoder interface {
	Decode(env *Envelope) error
}

// ErrUnencodable marks an envelope whose payload the codec cannot represent.
// The TCP writer drops such envelopes (fair-loss links) instead of killing
// the connection.
var ErrUnencodable = errors.New("transport: payload not encodable")
