package zlight

import (
	"context"

	"abstractbft/internal/core"
	"abstractbft/internal/ids"
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
	return core.InvokeSpeculative(ctx, c.env, c.id, req, init, []ids.ProcessID{c.env.Cluster.Head()}, c.env.Timer(3))
}

var _ core.Instance = (*Client)(nil)
