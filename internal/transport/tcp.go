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

// ConnChallenge is the first frame an acceptor sends on every accepted
// connection: a fresh random nonce the dialer must MAC to prove its claimed
// identity before the acceptor delivers anything the connection carries.
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

// tcpSendQueue is the outbound queue length of a link and of an accepted
// connection. A link whose connection is down keeps queuing up to it, so
// envelopes sent during an outage go out after the redial; a full queue
// drops (fair-loss links).
const tcpSendQueue = 4096

// tcpFlushTick bounds the time an encoded envelope may wait in the writer's
// buffer while the queue stays non-empty (the flush-on-empty heuristic alone
// never flushes under a perfectly sustained producer).
const tcpFlushTick = time.Millisecond

// A link's dial loop. tcpDialTimeout bounds one dial together with the wait
// for the acceptor's challenge, so a blackholed peer cannot hold the loop.
// Failed dials back off from tcpBackoffMin, doubling up to tcpBackoffMax:
// the cap bounds how long a peer takes to reach a restarted replica once it
// listens again.
const (
	tcpDialTimeout = time.Second
	tcpBackoffMin  = 10 * time.Millisecond
	tcpBackoffMax  = 200 * time.Millisecond
)

// tcpConn is one live connection: the socket, the queue its single writer
// drains (the link's on a dialed connection, its own on an accepted one), and
// the signal that the connection died.
type tcpConn struct {
	raw      net.Conn
	out      chan Envelope
	dead     chan struct{}
	deadOnce sync.Once
}

func newTCPConn(raw net.Conn, out chan Envelope) *tcpConn {
	return &tcpConn{raw: raw, out: out, dead: make(chan struct{})}
}

// close marks the connection dead and closes the socket: a writer blocked
// inside a write syscall (peer stopped reading) cannot observe the signal;
// failing the write is the only way to unblock it and release the fd.
func (c *tcpConn) close() {
	c.deadOnce.Do(func() {
		close(c.dead)
		c.raw.Close()
	})
}

// link is the outbound path to one dialable peer. One goroutine (runLink),
// started by the first Send or Prime toward the peer, owns it: it dials,
// proves this endpoint to the peer, drains out over the connection, and
// redials when the connection dies.
type link struct {
	peer    ids.ProcessID
	addr    string
	out     chan Envelope
	started atomic.Bool
	// proven is closed once this endpoint's first ConnProof to the peer is
	// written ahead of the queue (Prime waits on it).
	proven chan struct{}
}

// TCP is a TCP-based network for multi-process deployments. Every process
// listens on one address and keeps one outbound link per dialable peer;
// writes are coalesced per connection.
//
// Each connection carries envelopes from exactly one peer: the peer this
// endpoint dialed, or, on an accepted connection, the peer that answered the
// acceptor's challenge with a MAC under the pairwise key. An envelope whose
// From is any other process, or one that arrives before the proof, is never
// delivered, so a process can speak over TCP only as itself. This link
// identity is the one sender identity on the wire (Local gives it by
// construction): CHECKPOINT, FETCH, FETCH-STATE and STATE votes rest on it
// alone, and every other vote is also MAC'd or signed. Peers without an
// address (clients) are answered over the accepted connection they proved
// themselves on.
type TCP struct {
	self  ids.ProcessID
	keys  *authn.KeyStore
	codec Codec
	ln    net.Listener
	// links holds one link per dialable peer; it is fixed at construction,
	// so Send reads it without a lock.
	links map[ids.ProcessID]*link
	// ctx is cancelled by Close: it stops the dial loops and every writer.
	ctx  context.Context
	stop context.CancelFunc

	mu sync.Mutex
	// conns is every live connection (Close closes them); nil once closed.
	conns map[*tcpConn]struct{}
	// routes maps each proven peer without a link to the accepted
	// connection it proved itself on most recently.
	routes map[ids.ProcessID]*tcpConn

	// box is the receive side: readLoops deliver into it.
	box *Mailbox

	// metrics instruments the endpoint when set (SetMetrics); atomic because
	// connections read it without the lock.
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
// addrs[self], with one link to every other process in addrs. ks
// authenticates every connection (the handshake above) and codec
// (wirecodec.Binary()) frames it; neither may be nil.
func NewTCPCodec(self ids.ProcessID, addrs map[ids.ProcessID]string, ks *authn.KeyStore, codec Codec) (*TCP, error) {
	if codec == nil {
		return nil, errors.New("transport: nil codec")
	}
	if ks == nil {
		return nil, errors.New("transport: nil key store")
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
		self:   self,
		keys:   ks,
		codec:  codec,
		ln:     ln,
		links:  make(map[ids.ProcessID]*link, len(addrs)),
		conns:  make(map[*tcpConn]struct{}),
		routes: make(map[ids.ProcessID]*tcpConn),
		box:    NewMailbox(self, 8192),
	}
	t.ctx, t.stop = context.WithCancel(context.Background())
	for peer, peerAddr := range addrs {
		if peer != self {
			t.links[peer] = &link{peer: peer, addr: peerAddr,
				out: make(chan Envelope, tcpSendQueue), proven: make(chan struct{})}
		}
	}
	go t.acceptLoop()
	return t, nil
}

// Addr returns the address the endpoint is listening on.
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// ID implements Endpoint.
func (t *TCP) ID() ids.ProcessID { return t.self }

// Inbox implements Endpoint.
func (t *TCP) Inbox() <-chan Envelope { return t.box.Inbox() }

// Wake implements Endpoint: the wake-up goes into the mailbox alone, so no
// link, codec or metric sees it.
func (t *TCP) Wake() { t.box.Wake() }

// Route implements Endpoint: the route runs on the readLoops.
func (t *TCP) Route(route func(Envelope)) { t.box.Route(route) }

// Send implements Endpoint: it only enqueues, on the peer's link (starting
// the link's owner on first use) or on the reply route of an address-less
// peer. Failures are silent (fair-loss links).
func (t *TCP) Send(to ids.ProcessID, payload any) {
	env := Envelope{From: t.self, To: to, Payload: payload}
	if l, ok := t.links[to]; ok {
		t.startLink(l)
		t.enqueue(l.out, env)
		return
	}
	t.mu.Lock()
	c := t.routes[to]
	t.mu.Unlock()
	if c != nil {
		t.enqueue(c.out, env)
	}
}

// enqueue hands an envelope to a writer; a full queue drops it.
func (t *TCP) enqueue(out chan Envelope, env Envelope) {
	select {
	case out <- env:
	default:
		if m := t.metrics.Load(); m != nil {
			m.queueDrops.Inc()
		}
	}
}

// startLink starts l's owner goroutine unless it runs already.
func (t *TCP) startLink(l *link) {
	if !l.started.Load() && l.started.CompareAndSwap(false, true) {
		go t.runLink(l)
	}
}

// runLink owns l until the endpoint closes: dial, prove, drain, and redial
// after a backoff when the dial fails or the connection dies.
func (t *TCP) runLink(l *link) {
	backoff := tcpBackoffMin
	for {
		c, dec, proof, err := t.dial(l)
		if err == nil {
			backoff = tcpBackoffMin
			go t.readLoop(c, dec, l.peer, nil)
			select {
			case <-l.proven:
			default:
				// The proof is the first frame writeLoop writes, ahead of
				// everything queued now or later.
				close(l.proven)
			}
			t.writeLoop(c, proof)
		}
		select {
		case <-t.ctx.Done():
			return
		case <-time.After(backoff):
		}
		if err != nil {
			backoff = min(2*backoff, tcpBackoffMax)
		}
	}
}

// dial connects to l's peer and waits for its challenge, both within
// tcpDialTimeout. It returns the tracked connection, its decoder (which may
// already hold frames past the challenge) and the ConnProof to write first.
func (t *TCP) dial(l *link) (*tcpConn, StreamDecoder, Envelope, error) {
	deadline := time.Now().Add(tcpDialTimeout)
	d := net.Dialer{Deadline: deadline}
	raw, err := d.DialContext(t.ctx, "tcp", l.addr)
	if err != nil {
		return nil, nil, Envelope{}, err
	}
	raw.SetReadDeadline(deadline)
	dec := t.newDecoder(raw)
	var env Envelope
	if err := dec.Decode(&env); err != nil {
		raw.Close()
		return nil, nil, Envelope{}, err
	}
	challenge, ok := env.Payload.(*ConnChallenge)
	if !ok || env.From != l.peer {
		raw.Close()
		return nil, nil, Envelope{}, fmt.Errorf("transport: %v answered with %T from %v, not its challenge", l.peer, env.Payload, env.From)
	}
	raw.SetReadDeadline(time.Time{})
	c := newTCPConn(raw, l.out)
	if !t.track(c) {
		return nil, nil, Envelope{}, net.ErrClosed
	}
	return c, dec, Envelope{From: t.self, To: l.peer, Payload: &ConnProof{
		Proof: t.keys.MAC(t.self, l.peer, connProofBytes(challenge.Nonce)),
	}}, nil
}

func (t *TCP) acceptLoop() {
	for {
		raw, err := t.ln.Accept()
		if err != nil {
			return
		}
		c := newTCPConn(raw, make(chan Envelope, tcpSendQueue))
		if !t.track(c) {
			return
		}
		nonce := make([]byte, 32)
		rand.Read(nonce)
		go t.writeLoop(c, Envelope{From: t.self, Payload: &ConnChallenge{Nonce: nonce}})
		go t.readLoop(c, t.newDecoder(raw), 0, nonce)
	}
}

// track registers a live connection; on a closed endpoint it closes the
// connection instead and reports false.
func (t *TCP) track(c *tcpConn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.conns == nil {
		c.raw.Close()
		return false
	}
	t.conns[c] = struct{}{}
	return true
}

// untrack closes a connection and forgets it, and the reply route over it.
func (t *TCP) untrack(c *tcpConn, peer ids.ProcessID) {
	c.close()
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.conns, c)
	if t.routes[peer] == c {
		delete(t.routes, peer)
	}
}

func (t *TCP) newDecoder(raw net.Conn) StreamDecoder {
	var r io.Reader = raw
	if m := t.metrics.Load(); m != nil {
		r = &countingReader{r: raw, total: m.bytesIn}
	}
	return t.codec.NewDecoder(r)
}

// writeLoop is a connection's single writer: it writes first (the handshake
// frame) and then drains c.out through the codec's stream encoder, flushing
// when the queue is momentarily empty or a short flush tick fires. A burst of
// messages to the same peer (a batch fan-out) therefore crosses the kernel as
// one write instead of one syscall per message, and under sustained load the
// tick bounds how long an encoded envelope can sit in the buffer. It returns
// when the connection dies or the endpoint closes.
func (t *TCP) writeLoop(c *tcpConn, first Envelope) {
	defer c.close()
	m := t.metrics.Load()
	var w io.Writer = c.raw
	var cw *countingWriter
	if m != nil {
		cw = &countingWriter{w: c.raw, total: m.bytesOut}
		w = cw
	}
	enc := t.codec.NewEncoder(w)
	// noteFlush sizes each coalesced write: the bytes the flush pushed onto
	// the wire since the previous one.
	var lastFlushed uint64
	noteFlush := func() {
		if cw == nil {
			return
		}
		if n := cw.n.Load(); n > lastFlushed {
			m.flushes.Inc()
			m.flushBytes.Observe(float64(n - lastFlushed))
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
	env := first
	if enc.Encode(&env) != nil || !flush() {
		return
	}
	if m != nil {
		m.framesOut.Inc()
	}
	closing := t.ctx.Done()
	for {
		select {
		case env = <-c.out:
			if err := enc.Encode(&env); err != nil {
				if errors.Is(err, ErrUnencodable) {
					// Only this envelope is unrepresentable; drop it
					// (fair-loss links) and keep the connection. Loud, because
					// a type missing from the binary codec's table shows up
					// exactly here.
					if m != nil {
						m.encodeDrops.Inc()
					}
					log.Printf("transport: dropping unencodable %T to %v (%v): %v",
						env.Payload, env.To, c.raw.RemoteAddr(), err)
					continue
				}
				return
			}
			if m != nil {
				m.framesOut.Inc()
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
		case <-c.dead:
			return
		case <-closing:
			return
		}
	}
}

// readLoop drains one connection and delivers what its one peer sends. A
// dialed connection (nil nonce) is proven from the start: peer is the
// process this endpoint dialed. An accepted connection is proven once a
// ConnProof over nonce verifies; its sender becomes peer, and if peer has
// no link the connection becomes its reply route. Only envelopes from peer
// on a proven connection reach the mailbox.
func (t *TCP) readLoop(c *tcpConn, dec StreamDecoder, peer ids.ProcessID, nonce []byte) {
	defer func() { t.untrack(c, peer) }()
	m := t.metrics.Load()
	proven := nonce == nil
	// One envelope for the life of the loop (see writeLoop), zeroed per
	// message: a decoder may leave fields absent from the stream untouched.
	var env Envelope
	for {
		env = Envelope{}
		if err := dec.Decode(&env); err != nil {
			// EOFs, local closes and failed socket reads (a peer resetting
			// the connection as it goes) are the normal ends of a
			// connection; a framing or codec error is not — it kills the
			// connection (the peer re-dials) and deserves a trace naming the
			// peer, so multi-process e2e logs stay attributable.
			var readErr *net.OpError
			if err != io.EOF && err != io.ErrUnexpectedEOF && !errors.Is(err, net.ErrClosed) && !errors.As(err, &readErr) {
				if m != nil {
					m.decodeErrors.Inc()
				}
				who := "unproven peer"
				if proven {
					who = fmt.Sprintf("peer %v", peer)
				}
				log.Printf("transport %v: closing connection to %s (%v) on decode error: %v",
					t.self, who, c.raw.RemoteAddr(), err)
				t.flight.Load().Record("decode-error", -1,
					"%s (%v): %v", who, c.raw.RemoteAddr(), err)
			}
			return
		}
		if m != nil {
			m.framesIn.Inc()
		}
		if !proven {
			if p, ok := env.Payload.(*ConnProof); ok &&
				t.keys.VerifyMAC(env.From, t.self, connProofBytes(nonce), p.Proof) == nil {
				peer, proven = env.From, true
				if _, dialable := t.links[peer]; !dialable {
					t.route(peer, c)
				}
			}
			continue
		}
		if env.From != peer {
			continue
		}
		switch p := env.Payload.(type) {
		case *ConnChallenge, *ConnProof:
			// Challenges are answered only in dial, on a connection this
			// endpoint dialed, to the peer it dialed: answering any other
			// would make it a MAC oracle for squatting its identity elsewhere.
			continue
		case *Packed:
			if m != nil {
				m.packsIn.Add(uint64(len(p.Payloads)))
			}
		}
		t.box.Deliver(env)
	}
}

// route makes c the reply route to peer, replacing an older one: only the
// holder of peer's key can prove itself, so the newest proof is the peer's
// own reconnect.
func (t *TCP) route(peer ids.ProcessID, c *tcpConn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.conns != nil {
		t.routes[peer] = c
	}
}

// Prime waits until this endpoint has written its proof to each of the given
// peers (itself excepted). Every connection writes the proof ahead of its
// queue, so priming is not needed for reply routes; it makes a client's first
// request wait for its connections instead of sitting in their queues while
// a peer process is still binding its listen socket.
func (t *TCP) Prime(ctx context.Context, peers []ids.ProcessID) error {
	for _, p := range peers {
		if p == t.self {
			continue
		}
		l, ok := t.links[p]
		if !ok {
			return fmt.Errorf("transport: prime %v: no address", p)
		}
		t.startLink(l)
		select {
		case <-l.proven:
		case <-ctx.Done():
			return fmt.Errorf("transport: prime %v: %w", p, ctx.Err())
		}
	}
	return nil
}

// Close implements Endpoint.
func (t *TCP) Close() {
	t.mu.Lock()
	conns := t.conns
	t.conns, t.routes = nil, nil
	t.mu.Unlock()
	if conns == nil {
		return
	}
	t.stop()
	t.box.Close()
	for c := range conns {
		c.close()
	}
	t.ln.Close()
}

var _ Endpoint = (*TCP)(nil)
