package wirecodec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"abstractbft/internal/transport"
)

const (
	// flushThreshold bounds frame aggregation: once a frame body reaches
	// this size the encoder writes it out even mid-burst, so one oversized
	// frame never monopolizes the stream and the receiver's frame buffer
	// stays small in steady state.
	flushThreshold = 128 * 1024
	// maxFrameSize is the decoder's sanity limit on a frame's length prefix.
	// Honest frames exceed flushThreshold only by one envelope (a snapshot
	// transfer); anything beyond this is a corrupted or hostile stream and
	// kills the connection instead of provoking a huge allocation.
	maxFrameSize = 256 * 1024 * 1024
	// frameHeader reserves space for the u32 length prefix at the start of
	// the encoder's buffer so a flush is a single Write (one syscall).
	frameHeader = 4
	// retainedBuf is the largest per-connection buffer kept across frames;
	// rare oversized frames (state transfers) do not pin their memory.
	retainedBuf = 1 << 20
)

// Binary returns the binary codec as a transport.Codec: the one wire format
// of every TCP endpoint.
func Binary() transport.Codec { return binaryCodec{} }

type binaryCodec struct{}

func (binaryCodec) NewEncoder(w io.Writer) transport.StreamEncoder {
	e := &streamEncoder{w: w}
	e.buf = e.getBuf()
	return e
}

func (binaryCodec) NewDecoder(r io.Reader) transport.StreamDecoder {
	return &streamDecoder{br: bufio.NewReaderSize(r, 64*1024)}
}

// bufPool recycles frame buffers across connections and one-shot marshals;
// within a connection the encoder additionally reuses its buffer across
// frames, so steady-state encoding allocates nothing.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, frameHeader, 4096)
		return &b
	},
}

// streamEncoder accumulates envelopes into one length-prefixed frame and
// writes it on Flush (or mid-burst once the frame reaches flushThreshold).
// A pipelined burst of envelopes therefore crosses the kernel as a single
// write carrying a single length prefix.
type streamEncoder struct {
	w   io.Writer
	buf []byte // frame under construction; buf[:frameHeader] is the length slot
}

//abstractbft:noalloc
func (e *streamEncoder) getBuf() []byte {
	b := *bufPool.Get().(*[]byte)
	return b[:frameHeader]
}

//abstractbft:noalloc
func (e *streamEncoder) Encode(env *transport.Envelope) error {
	mark := len(e.buf)
	b := appendU32(e.buf, uint32(int32(env.From)))
	b = appendU32(b, uint32(int32(env.To)))
	b, err := appendPayload(b, env.Payload, 0)
	if err != nil {
		// The envelope is unrepresentable; roll the frame back to the last
		// complete envelope and report. The stream itself is still healthy.
		e.buf = e.buf[:mark]
		return err
	}
	e.buf = b
	if len(e.buf) >= flushThreshold {
		return e.Flush()
	}
	return nil
}

//abstractbft:noalloc
func (e *streamEncoder) Flush() error {
	if len(e.buf) <= frameHeader {
		return nil
	}
	binary.BigEndian.PutUint32(e.buf[:frameHeader], uint32(len(e.buf)-frameHeader))
	_, err := e.w.Write(e.buf)
	if cap(e.buf) > retainedBuf {
		// An oversized frame (state transfer) grew the buffer; drop it to
		// the collector rather than pinning megabytes per idle connection.
		e.buf = e.getBuf()
	} else {
		e.buf = e.buf[:frameHeader]
	}
	return err
}

// streamDecoder reads length-prefixed frames into a reused buffer and decodes
// envelopes out of it; decoded payloads never alias the buffer.
type streamDecoder struct {
	br    *bufio.Reader
	frame []byte
	rd    reader
}

func (d *streamDecoder) Decode(env *transport.Envelope) error {
	for d.rd.err == nil && d.rd.rem() == 0 {
		var hdr [frameHeader]byte
		if _, err := io.ReadFull(d.br, hdr[:]); err != nil {
			return err
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n == 0 {
			continue
		}
		if n > maxFrameSize {
			return fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
		}
		if cap(d.frame) < int(n) {
			d.frame = make([]byte, n)
		} else {
			d.frame = d.frame[:n]
		}
		if _, err := io.ReadFull(d.br, d.frame); err != nil {
			return err
		}
		d.rd = reader{buf: d.frame}
	}
	from := d.rd.id()
	to := d.rd.id()
	payload := decodePayload(&d.rd)
	if d.rd.err != nil {
		return d.rd.err
	}
	env.From, env.To, env.Payload = from, to, payload
	return nil
}

// MarshalWire encodes a single payload in the tagged wire form (u16 tag +
// fields) into a fresh byte slice. It is the one-shot API used by tests,
// fuzzing, and benchmarks; the TCP path streams through Binary() instead.
//
//abstractbft:noalloc
func MarshalWire(p any) ([]byte, error) {
	scratch := bufPool.Get().(*[]byte)
	b, err := appendPayload((*scratch)[:0], p, 0)
	if err != nil {
		bufPool.Put(scratch)
		return nil, err
	}
	out := make([]byte, len(b)) //abstractbft:alloc-ok one-shot API contract: callers keep the slice
	copy(out, b)
	if cap(b) <= retainedBuf {
		*scratch = b
		bufPool.Put(scratch)
	}
	return out, nil
}

// UnmarshalWire decodes a single payload from its tagged wire form, erroring
// on truncated input, unknown tags, and trailing bytes.
func UnmarshalWire(data []byte) (any, error) {
	r := reader{buf: data}
	p := decodePayload(&r)
	if r.err != nil {
		return nil, r.err
	}
	if r.rem() != 0 {
		return nil, fmt.Errorf("wirecodec: %d trailing bytes after payload", r.rem())
	}
	return p, nil
}
