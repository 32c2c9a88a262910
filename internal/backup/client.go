package backup

import (
	"context"

	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/transport"
)

// StopOnPanic implements host.PanicResistant: Backup's progress property is
// to commit exactly k requests, so client panics never stop it.
func (r *Replica) StopOnPanic() bool { return false }

// Client is the client-side handle of one Backup instance.
type Client struct {
	env core.ClientEnv
	id  core.InstanceID
}

// NewClient creates a Backup instance client.
func NewClient(env core.ClientEnv, id core.InstanceID) *Client {
	return &Client{env: env, id: id}
}

// ID implements core.Instance.
func (c *Client) ID() core.InstanceID { return c.id }

// Invoke implements core.Instance: the request is sent to every replica,
// ordered by the wrapped BFT protocol, and the client commits on f+1
// matching replies or aborts on 2f+1 matching signed ABORT messages.
func (c *Client) Invoke(ctx context.Context, req msg.Request, init *core.InitHistory) (core.Outcome, error) {
	m := c.env.NewRequest(c.id, req, init)
	send := func() { transport.Multicast(c.env.Endpoint, c.env.Cluster.Replicas(), m) }
	send()

	type voteKey struct {
		reply   authn.Digest
		history authn.Digest
	}
	type bucket struct {
		replicas map[ids.ProcessID]bool
		reply    []byte
		digests  []authn.Digest
	}
	votes := make(map[voteKey]*bucket)
	collector := core.NewAbortCollector(c.env.Cluster, c.env.Keys, c.id)

	w := c.env.Await(ctx, c.env.Timer(10))
	defer w.Done()
	for {
		env, ok, err := w.Next()
		if err != nil {
			return core.Outcome{}, err
		}
		if !ok {
			send()
			w.Rearm(c.env.Timer(10))
			continue
		}
		switch t := env.Payload.(type) {
		case *core.RespMessage:
			if t.Instance != c.id || t.Timestamp != req.Timestamp || !env.From.IsReplica() {
				continue
			}
			macBytes := t.MACBytes(env.From)
			if err := c.env.Keys.VerifyMAC(env.From, c.env.ID, macBytes[:], t.MAC); err != nil {
				continue
			}
			key := voteKey{reply: t.ReplyDigest, history: t.HistoryDigest}
			b := votes[key]
			if b == nil {
				b = &bucket{replicas: make(map[ids.ProcessID]bool)}
				votes[key] = b
			}
			b.replicas[env.From] = true
			if b.reply == nil && authn.Hash(t.Reply) == t.ReplyDigest {
				b.reply = append([]byte{}, t.Reply...)
			}
			if len(t.HistoryDigests) > 0 {
				b.digests = t.HistoryDigests
			}
			if len(b.replicas) >= c.env.Cluster.WeakQuorum() && b.reply != nil {
				out := core.Outcome{Committed: true, Reply: b.reply, CommitHistory: b.digests}
				if c.env.Checker != nil {
					c.env.Checker.RecordCommit(c.id, req, b.reply, b.digests)
				}
				return out, nil
			}
		case *core.AbortReply:
			if t.Instance != c.id {
				continue
			}
			if !collector.Add(t.Signed) || !collector.Ready() {
				continue
			}
			ind, err := collector.Build([]msg.Request{req})
			if err != nil {
				continue
			}
			if c.env.Checker != nil {
				c.env.Checker.RecordAbort(c.id, req, ind.Init.Extract)
			}
			return core.Outcome{Committed: false, Abort: &ind}, nil
		}
	}
}

var _ core.Instance = (*Client)(nil)
