package transport

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"abstractbft/internal/authn"
	"abstractbft/internal/ids"
	"abstractbft/internal/obs"
)

// ConnChallenge is the first frame an authenticated acceptor sends on every
// accepted connection: a fresh random nonce the dialer must MAC to prove its
// claimed identity before the acceptor routes replies over the connection.
type ConnChallenge struct {
	Nonce []byte
}

// ConnProof answers a ConnChallenge: a MAC over the nonce under the pairwise
// key of (dialer, acceptor). The dialer's identity is the envelope's From
// field; the MAC pins it, because only the two key holders can produce it and
// the fresh nonce defeats replays.
type ConnProof struct {
	Proof authn.MAC
}

// connProofBytes is the domain-separated input of the handshake MAC.
func connProofBytes(nonce []byte) []byte {
	return append([]byte("tcp-conn-proof:"), nonce...)
}

// tcpConn is one outbound connection with write coalescing: senders enqueue
// envelopes on out, and a single writer goroutine drains the queue through
// the codec's stream encoder, flushing when the queue is momentarily empty or
// a short flush tick fires. A burst of messages to the same peer (a batch
// fan-out) therefore crosses the kernel as one write instead of one syscall
// per message, and under sustained load the tick bounds how long an encoded
// envelope can sit in the buffer.
type tcpConn struct {
	raw      net.Conn
	codec    Codec
	m        *TCPMetrics // nil on uninstrumented endpoints
	out      chan Envelope
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// tcpSendQueue is the per-connection outbound queue length.
const tcpSendQueue = 4096

// tcpFlushTick bounds the time an encoded envelope may wait in the writer's
// buffer while the queue stays non-empty (the flush-on-empty heuristic alone
// never flushes under a perfectly sustained producer).
const tcpFlushTick = time.Millisecond

func newTCPConn(raw net.Conn, codec Codec, m *TCPMetrics) *tcpConn {
	c := &tcpConn{
		raw:   raw,
		codec: codec,
		m:     m,
		out:   make(chan Envelope, tcpSendQueue),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go c.writeLoop()
	return c
}

func (c *tcpConn) writeLoop() {
	defer close(c.done)
	defer c.raw.Close()
	var w io.Writer = c.raw
	var cw *countingWriter
	if c.m != nil {
		cw = &countingWriter{w: c.raw, total: c.m.bytesOut}
		w = cw
	}
	enc := c.codec.NewEncoder(w)
	// noteFlush sizes each coalesced write: the bytes the flush pushed onto
	// the wire since the previous one.
	var lastFlushed uint64
	noteFlush := func() {
		if cw == nil {
			return
		}
		if n := cw.n.Load(); n > lastFlushed {
			c.m.flushes.Inc()
			c.m.flushBytes.Observe(float64(n - lastFlushed))
			lastFlushed = n
		}
	}
	// The flush timer is armed only while encoded data sits unflushed, so
	// idle connections hold no ticking timer.
	timer := time.NewTimer(tcpFlushTick)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	dirty := false
	flush := func() bool {
		if err := enc.Flush(); err != nil {
			return false
		}
		noteFlush()
		if dirty {
			dirty = false
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
		return true
	}
	// One envelope for the life of the loop: its address goes to the encoder,
	// so one declared per message would be allocated per message.
	var env Envelope
	for {
		select {
		case env = <-c.out:
			if err := enc.Encode(&env); err != nil {
				if errors.Is(err, ErrUnencodable) {
					// Only this envelope is unrepresentable; drop it
					// (fair-loss links) and keep the connection. Loud, because
					// a type missing from the binary codec's table shows up
					// exactly here.
					if c.m != nil {
						c.m.encodeDrops.Inc()
					}
					log.Printf("transport: dropping unencodable %T to %v (%v): %v",
						env.Payload, env.To, c.raw.RemoteAddr(), err)
					continue
				}
				return
			}
			if c.m != nil {
				c.m.framesOut.Inc()
			}
			// Coalesce: flush when no further messages are queued, so a burst
			// crosses the kernel as a single write; otherwise arm the flush
			// tick so buffered envelopes never wait longer than the tick.
			if len(c.out) == 0 {
				if !flush() {
					return
				}
			} else if !dirty {
				dirty = true
				timer.Reset(tcpFlushTick)
			}
		case <-timer.C:
			dirty = false
			if err := enc.Flush(); err != nil {
				return
			}
			noteFlush()
		case <-c.stop:
			if enc.Flush() == nil {
				noteFlush()
			}
			return
		}
	}
}

// enqueue hands an envelope to the writer. A full queue drops the message
// (fair-loss links); false reports a dead writer so the caller re-dials.
func (c *tcpConn) enqueue(env Envelope) bool {
	select {
	case <-c.done:
		return false
	default:
	}
	select {
	case c.out <- env:
	default:
		// Dropped under overload; the connection is still healthy.
		if c.m != nil {
			c.m.queueDrops.Inc()
		}
	}
	return true
}

func (c *tcpConn) close() {
	c.stopOnce.Do(func() {
		close(c.stop)
		// Also close the socket: a writeLoop blocked inside a write syscall
		// (peer stopped reading) cannot observe the stop channel; failing
		// the write is the only way to unblock it and release the fd.
		c.raw.Close()
	})
}

// TCP is a TCP-based network for multi-process deployments. Every process
// listens on one address and dials peers lazily; connections are reused and
// writes are coalesced per connection.
type TCP struct {
	self  ids.ProcessID
	addrs map[ids.ProcessID]string
	// keys, when non-nil, enables the connection handshake: accepted
	// connections are challenged with a nonce, and reply routes toward
	// address-less peers (clients) are installed only after the dialer proves
	// its identity with a MAC over the nonce under the pairwise key. This
	// closes the reply-route squatting hole of the unauthenticated From
	// field (a liveness-only attack; protocol MACs protect safety).
	keys *authn.KeyStore
	// codec serializes envelopes on every connection of this endpoint.
	codec Codec

	mu     sync.Mutex
	conns  map[ids.ProcessID]*tcpConn
	ln     net.Listener
	closed bool

	// inMu guards the inbox against the Close race without serializing
	// delivery: readLoops hold it shared, Close exclusively.
	inMu     sync.RWMutex
	in       chan Envelope
	inClosed bool

	// proofMu guards proofSent: per-peer signals closed once this endpoint
	// has answered the peer's connection challenge (Prime waits on them).
	proofMu   sync.Mutex
	proofSent map[ids.ProcessID]chan struct{}

	// metrics instruments the endpoint when set (SetMetrics); atomic because
	// connections read it without the conns lock.
	metrics atomic.Pointer[TCPMetrics]

	// flight, when set (SetFlight), receives transport-level flight-recorder
	// events (today: decode errors that kill a connection); atomic for the
	// same reason as metrics.
	flight atomic.Pointer[obs.Flight]
}

// SetFlight attaches a flight recorder to the endpoint; transport anomalies
// (decode errors) are recorded as structured events alongside the metric
// counters.
func (t *TCP) SetFlight(f *obs.Flight) {
	if f == nil {
		return
	}
	t.flight.Store(f)
}

// NewTCPCodec creates the TCP endpoint of process self listening on
// addrs[self]; addrs maps every process to its listen address, and codec
// (wirecodec.Binary()) frames every connection. With non-nil keys the
// connection handshake is enabled: accepted connections must answer a nonce
// challenge with a MAC under the pairwise key before replies are routed over
// them. With nil keys reply routes are pinned by the envelope's
// unauthenticated From field.
func NewTCPCodec(self ids.ProcessID, addrs map[ids.ProcessID]string, keys *authn.KeyStore, codec Codec) (*TCP, error) {
	if codec == nil {
		return nil, errors.New("transport: nil codec")
	}
	addr, ok := addrs[self]
	if !ok {
		return nil, fmt.Errorf("transport: no address for %v", self)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t := &TCP{
		self:      self,
		addrs:     addrs,
		keys:      keys,
		codec:     codec,
		conns:     make(map[ids.ProcessID]*tcpConn),
		ln:        ln,
		in:        make(chan Envelope, 8192),
		proofSent: make(map[ids.ProcessID]chan struct{}),
	}
	go t.acceptLoop()
	return t, nil
}

// Addr returns the address the endpoint is listening on.
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// ID implements Endpoint.
func (t *TCP) ID() ids.ProcessID { return t.self }

// Inbox implements Endpoint.
func (t *TCP) Inbox() <-chan Envelope { return t.in }

// Send implements Endpoint. Failures are silent (fair-loss links); a dead
// connection is discarded so a later send re-dials.
func (t *TCP) Send(to ids.ProcessID, payload any) {
	conn, err := t.conn(to)
	if err != nil {
		return
	}
	if !conn.enqueue(Envelope{From: t.self, To: to, Payload: payload}) {
		t.dropConn(to, conn)
	}
}

func (t *TCP) conn(to ids.ProcessID) (*tcpConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("transport: closed")
	}
	if c, ok := t.conns[to]; ok {
		t.mu.Unlock()
		return c, nil
	}
	addr, ok := t.addrs[to]
	if !ok {
		t.mu.Unlock()
		return nil, fmt.Errorf("transport: no address for %v", to)
	}
	t.mu.Unlock()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		raw.Close()
		return nil, fmt.Errorf("transport: closed")
	}
	if c, ok := t.conns[to]; ok {
		// Lost a dial race; use the existing connection.
		t.mu.Unlock()
		raw.Close()
		return c, nil
	}
	c := newTCPConn(raw, t.codec, t.metrics.Load())
	t.conns[to] = c
	t.mu.Unlock()
	// Responses come back on the same connection (processes without a listed
	// address — clients — cannot be dialed back).
	go t.readLoop(raw, c, nil, to)
	return c, nil
}

// noPeer marks a connection with no dialed peer (accepted connections).
const noPeer = ids.ProcessID(-1)

// registerConn installs a write path over a connection so that replies can be
// routed back to peers with no dialable address (clients behind the accept
// side). An existing healthy write path is kept — letting any connection
// displace (and close) another peer's live connection would hand Byzantine
// processes an active link-severing primitive the fair-loss model does not
// grant them. A write path whose writer already died is replaced; after a
// genuine client reconnect, the first failed write to the stale path clears
// it (Send drops it) and a later envelope on the new connection registers
// it. It reports whether the peer now routes over wconn, so callers keep
// retrying until their connection wins the route.
func (t *TCP) registerConn(peer ids.ProcessID, wconn *tcpConn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	if c, ok := t.conns[peer]; ok {
		if c == wconn {
			return true
		}
		select {
		case <-c.done:
			// Dead writer: fall through and replace it.
		default:
			return false
		}
		delete(t.conns, peer)
	}
	t.conns[peer] = wconn
	return true
}

func (t *TCP) dropConn(to ids.ProcessID, dead *tcpConn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.conns[to]; ok && c == dead {
		c.close()
		delete(t.conns, to)
	}
}

// dropByRaw removes every registered write path over the given connection
// (called when its read side dies, so a later send re-dials).
func (t *TCP) dropByRaw(raw net.Conn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, c := range t.conns {
		if c.raw == raw {
			c.close()
			delete(t.conns, id)
		}
	}
}

func (t *TCP) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		// Every connection gets exactly one writer (one codec stream) created
		// up front; the acceptor challenges the dialer over it when the
		// handshake is enabled.
		wconn := newTCPConn(conn, t.codec, t.metrics.Load())
		var nonce []byte
		if t.keys != nil {
			nonce = make([]byte, 32)
			if _, err := rand.Read(nonce); err != nil {
				wconn.close()
				conn.Close()
				continue
			}
			wconn.enqueue(Envelope{From: t.self, Payload: &ConnChallenge{Nonce: nonce}})
		}
		go t.readLoop(conn, wconn, nonce, noPeer)
	}
}

// readLoop drains one connection. wconn is the connection's single writer;
// nonce is non-nil on accepted connections of an authenticated endpoint and
// holds the challenge the dialer must answer before this connection can win
// reply routes; dialed is the peer this endpoint dialed (noPeer for accepted
// connections).
func (t *TCP) readLoop(conn net.Conn, wconn *tcpConn, nonce []byte, dialed ids.ProcessID) {
	defer conn.Close()
	defer wconn.close()
	defer t.dropByRaw(conn)
	m := t.metrics.Load()
	var r io.Reader = conn
	if m != nil {
		r = &countingReader{r: conn, total: m.bytesIn}
	}
	dec := t.codec.NewDecoder(r)
	// registered caches which peers this connection already routes replies
	// for, so the global registration lock is taken once per peer rather
	// than once per message.
	registered := make(map[ids.ProcessID]bool)
	// proven is the peer that answered the challenge on this connection.
	proven := ids.ProcessID(-1)
	// One envelope for the life of the loop (see writeLoop), zeroed per
	// message: a decoder may leave fields absent from the stream untouched.
	var env Envelope
	for {
		env = Envelope{}
		if err := dec.Decode(&env); err != nil {
			// EOFs and local closes are the normal ends of a connection; a
			// framing or codec error is not — it kills the connection (the
			// peer re-dials) and deserves a trace naming the peer, so
			// multi-process e2e logs stay attributable.
			if err != io.EOF && err != io.ErrUnexpectedEOF && !errors.Is(err, net.ErrClosed) {
				if m != nil {
					m.decodeErrors.Inc()
				}
				peer := "unproven peer"
				switch {
				case dialed != noPeer:
					peer = fmt.Sprintf("dialed peer %v", dialed)
				case proven >= 0:
					peer = fmt.Sprintf("proven peer %v", proven)
				}
				log.Printf("transport %v: closing connection to %s (%v) on decode error: %v",
					t.self, peer, conn.RemoteAddr(), err)
				t.flight.Load().Record("decode-error", -1,
					"%s (%v): %v", peer, conn.RemoteAddr(), err)
			}
			return
		}
		if m != nil {
			m.framesIn.Inc()
		}
		switch hs := env.Payload.(type) {
		case *ConnChallenge:
			// The acceptor challenges us: prove our identity with a MAC over
			// the nonce under the pairwise key shared with it. Only answer on
			// a connection we dialed, and only for the peer we dialed —
			// answering arbitrary challenges would turn this endpoint into a
			// MAC oracle (an attacker could forward another acceptor's nonce
			// here, harvest the proof, and replay it to squat our reply
			// route at that acceptor).
			if t.keys != nil && dialed != noPeer && env.From == dialed {
				wconn.enqueue(Envelope{From: t.self, To: env.From, Payload: &ConnProof{
					Proof: t.keys.MAC(t.self, env.From, connProofBytes(hs.Nonce)),
				}})
				// The proof is ordered ahead of every envelope enqueued after
				// this point, so the acceptor installs this endpoint's reply
				// route before processing them: signal Prime waiters.
				t.markProofSent(env.From)
			}
			continue
		case *ConnProof:
			if t.keys != nil && nonce != nil && proven < 0 {
				if t.keys.VerifyMAC(env.From, t.self, connProofBytes(nonce), hs.Proof) == nil {
					proven = env.From
					// Install the reply route right away for address-less
					// peers: their proof may be the only frame after the
					// initial request burst.
					if _, dialable := t.addrs[proven]; !dialable {
						registered[proven] = t.registerConn(proven, wconn)
					}
				}
			}
			continue
		}
		// Route replies back over this connection when the sender has no
		// dialable address (clients); keep retrying until this connection
		// wins the route (an older healthy connection is never displaced).
		// With the handshake enabled, only the proven peer may win routes —
		// an unauthenticated From cannot squat another client's replies.
		if _, dialable := t.addrs[env.From]; !dialable && !registered[env.From] {
			if t.keys == nil || (nonce != nil && env.From == proven) {
				registered[env.From] = t.registerConn(env.From, wconn)
			}
		}
		// Expand write-coalesced packs so inbox consumers only ever see
		// protocol payloads.
		if p, ok := env.Payload.(*Packed); ok {
			if m != nil {
				m.packsIn.Add(uint64(len(p.Payloads)))
			}
			for _, payload := range p.Payloads {
				if !t.deliverLocal(Envelope{From: env.From, To: env.To, Payload: payload, Trace: env.Trace}) {
					return
				}
			}
			continue
		}
		if !t.deliverLocal(env) {
			return
		}
	}
}

// deliverLocal enqueues an inbound envelope; the closed check and the send
// happen under the read side of the lock Close holds exclusively while
// closing the inbox, so a racing Close cannot make this send on a closed
// channel and concurrent readLoops do not serialize against each other. It
// reports false once the endpoint is closed.
func (t *TCP) deliverLocal(env Envelope) bool {
	t.inMu.RLock()
	defer t.inMu.RUnlock()
	if t.inClosed {
		return false
	}
	select {
	case t.in <- env:
	default:
	}
	return true
}

// proofSignal returns (lazily creating) the channel closed once this
// endpoint has answered peer's connection challenge.
func (t *TCP) proofSignal(peer ids.ProcessID) chan struct{} {
	t.proofMu.Lock()
	defer t.proofMu.Unlock()
	ch, ok := t.proofSent[peer]
	if !ok {
		ch = make(chan struct{})
		t.proofSent[peer] = ch
	}
	return ch
}

func (t *TCP) markProofSent(peer ids.ProcessID) {
	// Closed under proofMu: two connections can answer the same peer's
	// challenge concurrently (a redial racing a readLoop still draining the
	// old connection), and a bare check-then-close would double-close.
	t.proofMu.Lock()
	defer t.proofMu.Unlock()
	ch, ok := t.proofSent[peer]
	if !ok {
		ch = make(chan struct{})
		t.proofSent[peer] = ch
	}
	select {
	case <-ch:
	default:
		close(ch)
	}
}

// Prime dials the given peers and waits until this endpoint has answered
// each one's connection challenge. An address-less process (a client) whose
// first envelope raced ahead of its proof would have the replies to that
// envelope dropped at the acceptor (no reply route yet) and pay a full
// retransmission timeout; priming before the first real send makes the proof
// the first frame after the challenge, so the route exists before any
// request is processed. A no-op on unauthenticated endpoints.
func (t *TCP) Prime(ctx context.Context, peers []ids.ProcessID) error {
	if t.keys == nil {
		return nil
	}
	for _, p := range peers {
		if p == t.self {
			continue
		}
		// Retry dials until the deadline: a peer process may still be
		// binding its listen socket (restarts, rolling deploys).
		for {
			_, err := t.conn(p)
			if err == nil {
				break
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("transport: prime %v: %v (%w)", p, err, ctx.Err())
			case <-time.After(20 * time.Millisecond):
			}
		}
	}
	for _, p := range peers {
		if p == t.self {
			continue
		}
		select {
		case <-t.proofSignal(p):
		case <-ctx.Done():
			return fmt.Errorf("transport: prime %v: %w", p, ctx.Err())
		}
	}
	return nil
}

// Close implements Endpoint.
func (t *TCP) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	conns := t.conns
	t.conns = make(map[ids.ProcessID]*tcpConn)
	t.mu.Unlock()
	// Close the inbox under the exclusive side of the delivery lock, so no
	// readLoop can be between its closed-check and its send.
	t.inMu.Lock()
	t.inClosed = true
	close(t.in)
	t.inMu.Unlock()
	for _, c := range conns {
		c.close()
	}
	t.ln.Close()
}

var _ Endpoint = (*TCP)(nil)
