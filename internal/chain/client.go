package chain

import (
	"context"

	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
)

// Client is the client-side handle of one Chain instance.
type Client struct {
	env core.ClientEnv
	id  core.InstanceID
}

// NewClient creates a Chain instance client.
func NewClient(env core.ClientEnv, id core.InstanceID) *Client {
	return &Client{env: env, id: id}
}

// ID implements core.Instance.
func (c *Client) ID() core.InstanceID { return c.id }

// Invoke implements core.Instance: Step C1 (send the request to the head with
// a chain authenticator for the first f+1 replicas, arm an (n+1)Δ timer) and
// Step C4 (commit on a tail reply authenticated by the last f+1 replicas);
// the panicking mechanism otherwise.
func (c *Client) Invoke(ctx context.Context, req msg.Request, init *core.InitHistory) (core.Outcome, error) {
	if c.env.Checker != nil {
		c.env.Checker.RecordInvoke(req)
		c.env.Checker.RecordInit(c.id, init)
	}
	cl := c.env.Cluster
	ca := authn.ChainAuthenticator{}
	succ := cl.ChainSuccessorSet(c.env.ID)
	authBytes := core.ClientAuthBytes(c.id, req.Digest())
	ca = c.env.Keys.AppendChainMACs(ca, c.env.ID, succ, authBytes[:])
	m := &Message{Instance: c.id, Req: req, CA: ca}
	c.env.Endpoint.Send(cl.Head(), m)

	out, committed, err := c.awaitTailReply(ctx, req)
	if err != nil {
		return core.Outcome{}, err
	}
	if committed {
		return out, nil
	}
	return core.PanicAndAbort(ctx, c.env, c.id, req, init)
}

// awaitTailReply waits for the tail's CHAIN message and verifies the chain
// authenticator MACs of the last f+1 replicas.
func (c *Client) awaitTailReply(ctx context.Context, req msg.Request) (core.Outcome, bool, error) {
	w := c.env.Await(ctx, c.env.Timer(c.env.Cluster.N+1))
	defer w.Done()
	for {
		env, ok, err := w.Next()
		if err != nil || !ok {
			return core.Outcome{}, false, err
		}
		m, isChain := env.Payload.(*Message)
		if !isChain || m.Instance != c.id || m.Req.ID() != req.ID() || !m.HasSeq {
			continue
		}
		if authn.Hash(m.Reply) != m.ReplyDigest {
			continue
		}
		if !c.verifyTailMACs(m) {
			continue
		}
		out := core.Outcome{Committed: true, Reply: append([]byte(nil), m.Reply...), CommitHistory: m.HistoryDigests.Clone()}
		if c.env.Checker != nil {
			c.env.Checker.RecordCommit(c.id, req, out.Reply, out.CommitHistory)
		}
		return out, true, nil
	}
}

// verifyTailMACs checks the MACs of the last f+1 replicas over the reply,
// history digest, instance, and request.
func (c *Client) verifyTailMACs(m *Message) bool {
	cl := c.env.Cluster
	data := TailAuthBytes(c.id, m.Req, m.Seq, m.ReplyDigest, m.HistoryDigest)
	var last []ids.ProcessID
	last = append(last, cl.LastReplicas()...)
	return c.env.Keys.VerifyChain(m.CA, c.env.ID, last, data) == nil
}

var _ core.Instance = (*Client)(nil)
