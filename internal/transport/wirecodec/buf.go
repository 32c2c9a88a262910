// Package wirecodec is the wire codec of the TCP plane: explicit,
// length-prefixed marshalling for the closed set of message types that cross
// a transport.Endpoint — no reflection, no per-stream type dictionaries, and
// near-zero steady-state allocations on encode. The type switch in
// appendPayload is the registry of wire types: a payload without a tag arm
// there cannot cross a process boundary.
//
// Wire format. A connection is a sequence of frames:
//
//	frame   := u32 length | body            (length = len(body), big endian)
//	body    := envelope+                    (one or more envelopes)
//	envelope:= i32 from | i32 to | payload
//	payload := u16 tag | fields             (tag from types.go's table)
//
// Fields are fixed-width big-endian integers, single boolean bytes,
// u32-length-prefixed byte strings, and u32-count-prefixed element sequences.
// Digests and MACs are raw 32-byte values. Nested `any` fields (shard marks,
// backup wraps, packs) recurse into payload with a depth cap.
//
// Every length and count is validated against the bytes remaining in the
// frame before any allocation, so truncated frames, oversized length
// prefixes, and unknown tags fail with a clean error — never a panic, and
// never a partially decoded envelope (decoding is all-or-nothing per frame).
package wirecodec

import (
	"encoding/binary"
	"errors"
	"fmt"

	"abstractbft/internal/authn"
	"abstractbft/internal/ids"
)

// Decode errors. All decoder failures wrap one of these.
var (
	ErrTruncated   = errors.New("wirecodec: truncated input")
	ErrOversized   = errors.New("wirecodec: length prefix exceeds input")
	ErrUnknownTag  = errors.New("wirecodec: unknown type tag")
	ErrDepth       = errors.New("wirecodec: payload nesting too deep")
	ErrFrameTooBig = errors.New("wirecodec: frame exceeds size limit")
)

// maxDepth bounds recursion through nested `any` payloads (packs inside
// marks inside wraps); honest senders nest at most three levels.
const maxDepth = 16

// Append helpers: plain append-style writers over a caller-owned buffer.

//abstractbft:noalloc
func appendU8(b []byte, v byte) []byte { return append(b, v) }

//abstractbft:noalloc
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

//abstractbft:noalloc
func appendU16(b []byte, v uint16) []byte {
	return append(b, byte(v>>8), byte(v))
}

//abstractbft:noalloc
func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

//abstractbft:noalloc
func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

//abstractbft:noalloc
func appendID(b []byte, p ids.ProcessID) []byte { return appendU32(b, uint32(int32(p))) }

//abstractbft:noalloc
func appendBytes(b, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}

//abstractbft:noalloc
func appendDigest(b []byte, d authn.Digest) []byte { return append(b, d[:]...) }

//abstractbft:noalloc
func appendMAC(b []byte, m authn.MAC) []byte { return append(b, m[:]...) }

//abstractbft:noalloc
func appendU64s(b []byte, vs []uint64) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendU64(b, v)
	}
	return b
}

// reader decodes one frame with a sticky error: after the first failure every
// subsequent read returns zero values and the error is reported once at the
// envelope boundary, so per-field error plumbing is unnecessary and a failed
// decode can never hand back a partially valid payload.
type reader struct {
	buf   []byte
	off   int
	depth int
	err   error
}

func (r *reader) rem() int { return len(r.buf) - r.off }

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// take claims n bytes of the frame, failing cleanly when fewer remain.
func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.rem() {
		r.fail(fmt.Errorf("%w: need %d bytes, have %d", ErrTruncated, n, r.rem()))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) bool() bool { return r.u8() != 0 }

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *reader) id() ids.ProcessID { return ids.ProcessID(int32(r.u32())) }

// bytes reads a u32-length-prefixed byte string into a fresh slice (the
// frame buffer is recycled, so decoded payloads must not alias it). A zero
// length decodes to nil: empty and nil encode alike, so decoding picks one,
// and the round-trip audits' DeepEqual relies on it being nil.
func (r *reader) bytes() []byte {
	var own []byte
	return r.bytesIn(&own, 1)
}

// slabBytes bounds what one slab allocation holds, and with it what a decoded
// value that outlives its siblings can pin.
const slabBytes = 16 * 1024

// bytesIn is bytes for one of a run of byte strings (a batch's commands): it
// carves the copy out of *slab, so the run costs a few allocations instead of
// one per string. more counts the strings still to come, this one included;
// a slab that runs out is replaced by one sized as if they were all this
// long. Strings too long to share a slab get their own storage. Every result
// is capped at its length: appending to one never reaches its neighbour.
func (r *reader) bytesIn(slab *[]byte, more int) []byte {
	n := r.u32()
	if r.err != nil {
		return nil
	}
	if int64(n) > int64(r.rem()) {
		r.fail(fmt.Errorf("%w: byte string of %d in %d remaining", ErrOversized, n, r.rem()))
		return nil
	}
	if n == 0 {
		return nil
	}
	size := int(n)
	if size > cap(*slab)-len(*slab) {
		if size > slabBytes/4 {
			return append(make([]byte, 0, size), r.take(size)...)
		}
		*slab = make([]byte, 0, size*min(more, slabBytes/size))
	}
	start := len(*slab)
	*slab = append(*slab, r.take(size)...)
	return (*slab)[start:len(*slab):len(*slab)]
}

func (r *reader) digest() (d authn.Digest) {
	b := r.take(authn.DigestSize)
	if b != nil {
		copy(d[:], b)
	}
	return d
}

func (r *reader) mac() (m authn.MAC) {
	b := r.take(authn.MACSize)
	if b != nil {
		copy(m[:], b)
	}
	return m
}

// count reads a u32 element count and validates it against the remaining
// frame bytes (every element encodes to at least one byte), so a forged
// count cannot force a large allocation.
func (r *reader) count() int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if int64(n) > int64(r.rem()) {
		r.fail(fmt.Errorf("%w: %d elements in %d remaining bytes", ErrOversized, n, r.rem()))
		return 0
	}
	return int(n)
}

func (r *reader) u64s() []uint64 {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]uint64, 0, sliceCap(n, 8))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.u64())
	}
	if r.err != nil {
		return nil
	}
	return out
}

// sliceCap bounds the initial capacity of a decoded slice: grow-by-append
// from a modest start, so a hostile count validated only against a minimum
// element size still cannot force a huge up-front allocation.
func sliceCap(n, elemSize int) int {
	const budget = 64 * 1024
	if max := budget / elemSize; n > max {
		return max
	}
	return n
}
