package zlight

import (
	"context"

	"abstractbft/internal/core"
	"abstractbft/internal/msg"
)

// Client is the client-side handle of one ZLight instance.
type Client struct {
	env core.ClientEnv
	id  core.InstanceID
}

// NewClient creates a ZLight instance client.
func NewClient(env core.ClientEnv, id core.InstanceID) *Client {
	return &Client{env: env, id: id}
}

// ID implements core.Instance.
func (c *Client) ID() core.InstanceID { return c.id }

// Invoke implements core.Instance: Step Z1 (send the request to the primary
// and arm a 3Δ timer), Step Z4 (commit on 3f+1 identical speculative
// replies), and the panicking mechanism otherwise.
func (c *Client) Invoke(ctx context.Context, req msg.Request, init *core.InitHistory) (core.Outcome, error) {
	if c.env.Checker != nil {
		c.env.Checker.RecordInvoke(req)
		c.env.Checker.RecordInit(c.id, init)
	}
	authBytes := core.ClientAuthBytes(c.id, req.Digest())
	auth := c.env.Keys.NewAuthenticator(c.env.ID, c.env.Cluster.Replicas(), authBytes[:])
	m := &RequestMessage{Instance: c.id, Req: req, Auth: auth}
	c.env.Endpoint.Send(c.env.Cluster.Head(), m)

	out, committed, err := core.AwaitSpeculativeCommit(ctx, c.env, c.id, req, c.env.Timer(3))
	if err != nil {
		return core.Outcome{}, err
	}
	if committed {
		return out, nil
	}
	return core.PanicAndAbort(ctx, c.env, c.id, req, init)
}

var _ core.Instance = (*Client)(nil)
