package pbft

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/transport"
)

// ReplicaConfig configures a standalone PBFT replica used as the baseline in
// the paper's evaluation.
type ReplicaConfig struct {
	Cluster           ids.Cluster
	Replica           ids.ProcessID
	Keys              *authn.KeyStore
	App               app.Application
	Endpoint          transport.Endpoint
	BatchSize         int
	ViewChangeTimeout time.Duration
	Ops               *authn.OpCounter
	// RequestFilter, when non-nil, is consulted before accepting a client
	// request; returning false drops it. Aardvark installs its
	// client-blacklisting filter here.
	RequestFilter func(from ids.ProcessID, req *Request) bool
	// AfterDeliver, when non-nil, runs after each delivered batch with
	// access to the ordering engine; Aardvark installs its primary-rotation
	// policy here (it rotates when the primary underperforms its throughput
	// expectation).
	AfterDeliver func(e *Engine, batch []msg.Request)
	// OnTick, when non-nil, runs on every timer tick with access to the
	// engine (used by Aardvark's throughput monitoring).
	OnTick func(e *Engine)
}

// Replica is a standalone PBFT replica: it wires the ordering engine to the
// network and executes delivered requests against the application.
type Replica struct {
	cfg    ReplicaConfig
	mu     sync.Mutex
	engine *Engine
	app    app.Application
	// lastReply caches the last reply per client for retransmissions.
	lastReply map[ids.ProcessID]Reply
	executed  uint64
	// processingDelay models the "processing delay" attack when the replica
	// is the primary.
	processingDelay time.Duration
	crashed         bool

	stopCh chan struct{}
	doneCh chan struct{}
}

// NewReplica creates a standalone PBFT replica; Start launches it.
func NewReplica(cfg ReplicaConfig) *Replica {
	r := &Replica{
		cfg:       cfg,
		app:       cfg.App,
		lastReply: make(map[ids.ProcessID]Reply),
		stopCh:    make(chan struct{}),
		doneCh:    make(chan struct{}),
	}
	r.engine = NewEngine(EngineConfig{
		Cluster:           cfg.Cluster,
		Replica:           cfg.Replica,
		Keys:              cfg.Keys,
		Send:              func(to ids.ProcessID, m any) { cfg.Endpoint.Send(to, m) },
		Deliver:           r.deliver,
		BatchSize:         cfg.BatchSize,
		ViewChangeTimeout: cfg.ViewChangeTimeout,
		Ops:               cfg.Ops,
	})
	return r
}

// Start launches the replica's event loop.
func (r *Replica) Start() { go r.run() }

// Stop terminates the replica.
func (r *Replica) Stop() {
	close(r.stopCh)
	<-r.doneCh
}

// SetProcessingDelay injects a per-message processing delay (attack model).
func (r *Replica) SetProcessingDelay(d time.Duration) {
	r.mu.Lock()
	r.processingDelay = d
	r.mu.Unlock()
}

// SetCrashed makes the replica drop all messages (true) or resume (false).
func (r *Replica) SetCrashed(c bool) {
	r.mu.Lock()
	r.crashed = c
	r.mu.Unlock()
}

// Executed returns the number of requests executed by this replica.
func (r *Replica) Executed() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.executed
}

// ViewChanges returns the number of view changes completed by this replica.
func (r *Replica) ViewChanges() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.engine.ViewChanges()
}

func (r *Replica) run() {
	defer close(r.doneCh)
	ticker := time.NewTicker(25 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-r.stopCh:
			return
		case <-ticker.C:
			r.mu.Lock()
			if !r.crashed {
				r.engine.Tick()
				if r.cfg.OnTick != nil {
					r.cfg.OnTick(r.engine)
				}
			}
			r.mu.Unlock()
		case env, ok := <-r.cfg.Endpoint.Inbox():
			if !ok {
				return
			}
			r.handle(env.From, env.Payload)
		}
	}
}

func (r *Replica) handle(from ids.ProcessID, payload any) {
	r.mu.Lock()
	crashed := r.crashed
	delay := r.processingDelay
	r.mu.Unlock()
	if crashed {
		return
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch m := payload.(type) {
	case *Request:
		r.onRequest(from, m)
	default:
		r.engine.HandleMessage(from, payload)
	}
}

func (r *Replica) onRequest(from ids.ProcessID, m *Request) {
	if r.cfg.RequestFilter != nil && !r.cfg.RequestFilter(from, m) {
		return
	}
	r.cfg.Ops.CountMACVerify(r.cfg.Replica, 1)
	if err := r.cfg.Keys.Verify(m.Auth, r.cfg.Replica, requestAuthBytes(m.Req)); err != nil {
		return
	}
	if last, ok := r.lastReply[m.Req.Client]; ok && last.Timestamp == m.Req.Timestamp {
		out := last
		out.MAC = r.cfg.Keys.MAC(r.cfg.Replica, m.Req.Client, replyMACBytes(&out))
		r.cfg.Ops.CountMACGen(r.cfg.Replica, 1)
		r.cfg.Endpoint.Send(m.Req.Client, &out)
		return
	}
	r.engine.SubmitRequest(m.Req)
}

// Engine exposes the ordering engine; the caller must only use it from the
// replica's own callbacks (AfterDeliver, OnTick) or while the replica is
// stopped.
func (r *Replica) Engine() *Engine { return r.engine }

// deliver executes an ordered batch and replies to the clients.
func (r *Replica) deliver(batch []msg.Request) {
	defer func() {
		if r.cfg.AfterDeliver != nil {
			r.cfg.AfterDeliver(r.engine, batch)
		}
	}()
	for _, req := range batch {
		if last, ok := r.lastReply[req.Client]; ok && last.Timestamp >= req.Timestamp {
			continue
		}
		result := r.app.Execute(req.Command)
		r.executed++
		rep := Reply{
			View:      r.engine.View(),
			Replica:   r.cfg.Replica,
			Client:    req.Client,
			Timestamp: req.Timestamp,
			Result:    result,
		}
		rep.MAC = r.cfg.Keys.MAC(r.cfg.Replica, req.Client, replyMACBytes(&rep))
		r.cfg.Ops.CountMACGen(r.cfg.Replica, 1)
		r.lastReply[req.Client] = rep
		r.cfg.Endpoint.Send(req.Client, &rep)
		if r.engine.IsPrimary() {
			r.cfg.Ops.CountRequest()
		}
	}
}

// requestAuthBytes is the data clients authenticate in standalone PBFT.
func requestAuthBytes(req msg.Request) []byte {
	d := req.Digest()
	return d[:]
}

// replyMACBytes is the data covered by a reply MAC.
func replyMACBytes(rep *Reply) []byte {
	buf := make([]byte, 20+authn.DigestSize)
	binary.BigEndian.PutUint64(buf[0:8], rep.View)
	binary.BigEndian.PutUint32(buf[8:12], uint32(rep.Replica))
	binary.BigEndian.PutUint64(buf[12:20], rep.Timestamp)
	d := authn.Hash(rep.Result)
	copy(buf[20:], d[:])
	return buf
}

// ClientConfig configures a standalone PBFT client.
type ClientConfig struct {
	Cluster ids.Cluster
	Keys    *authn.KeyStore
	ID      ids.ProcessID
	// Endpoint attaches the client to the network.
	Endpoint transport.Endpoint
	// Timeout is the retransmission timeout.
	Timeout time.Duration
	Ops     *authn.OpCounter
}

// Client is a standalone PBFT client issuing requests in closed loop.
type Client struct {
	cfg ClientConfig
}

// NewClient creates a standalone PBFT client.
func NewClient(cfg ClientConfig) *Client {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 200 * time.Millisecond
	}
	return &Client{cfg: cfg}
}

// Invoke submits a request and blocks until f+1 matching replies arrive.
func (c *Client) Invoke(ctx context.Context, req msg.Request) ([]byte, error) {
	auth := c.cfg.Keys.NewAuthenticator(c.cfg.ID, c.cfg.Cluster.Replicas(), requestAuthBytes(req))
	c.cfg.Ops.CountMACGen(c.cfg.ID, auth.NumMACs())
	m := &Request{Req: req, Auth: auth}
	// Client multicast: send the request to every replica so the backups can
	// trigger a view change if the primary drops it.
	transport.Multicast(c.cfg.Endpoint, c.cfg.Cluster.Replicas(), m)

	votes := make(map[authn.Digest]map[ids.ProcessID]bool)
	var results = make(map[authn.Digest][]byte)
	timer := time.NewTimer(c.cfg.Timeout)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-timer.C:
			transport.Multicast(c.cfg.Endpoint, c.cfg.Cluster.Replicas(), m)
			timer.Reset(c.cfg.Timeout)
		case env, ok := <-c.cfg.Endpoint.Inbox():
			if !ok {
				return nil, fmt.Errorf("pbft: client endpoint closed")
			}
			rep, isReply := env.Payload.(*Reply)
			if !isReply || rep.Timestamp != req.Timestamp || rep.Client != c.cfg.ID {
				continue
			}
			c.cfg.Ops.CountMACVerify(c.cfg.ID, 1)
			if err := c.cfg.Keys.VerifyMAC(rep.Replica, c.cfg.ID, replyMACBytes(rep), rep.MAC); err != nil {
				continue
			}
			d := authn.Hash(rep.Result)
			if votes[d] == nil {
				votes[d] = make(map[ids.ProcessID]bool)
			}
			votes[d][rep.Replica] = true
			results[d] = rep.Result
			if len(votes[d]) >= c.cfg.Cluster.WeakQuorum() {
				return results[d], nil
			}
		}
	}
}
