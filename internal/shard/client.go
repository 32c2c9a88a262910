package shard

import (
	"context"
	"fmt"
	"time"

	"abstractbft/internal/core"
	"abstractbft/internal/msg"
	"abstractbft/internal/obs"
)

// ClientConfig configures a sharded client.
type ClientConfig struct {
	// Shards is the number of shards (must match the replica plane).
	Shards int
	// Extract maps requests to their application key; nil selects
	// FullCommandKey.
	Extract KeyExtractor
	// Env is the client environment bound to the client's real endpoint;
	// the client's router takes the endpoint's inbox over.
	Env core.ClientEnv
	// NewInstanceFactory builds the client-side instance factory of one
	// shard from its (rotated) environment — the same factory the unsharded
	// plane uses (Composition.InstanceFactory).
	NewInstanceFactory func(env core.ClientEnv) core.InstanceFactory
	// Pipeline, when non-nil, makes every per-shard composer a pipelining
	// one with these options (invocations of one shard proceed
	// concurrently up to Depth).
	Pipeline *core.PipelineOptions
}

// shardInvoker is the per-shard client handle (a Composer or a
// PipelinedComposer).
type shardInvoker interface {
	Invoke(ctx context.Context, req msg.Request) ([]byte, error)
	ActiveInstance() core.InstanceID
	Switches() uint64
}

// Client is a sharded-plane client: it routes every request to the shard
// owning the request's key and invokes that shard's composer. Per-shard
// composers run the unmodified client-side composition protocol (ACP), so
// aborts and instance switches are handled independently per shard. One
// client identity spans all shards; the caller's timestamps must be unique
// and increasing across the whole client (each shard then sees an increasing
// subsequence, and the replica-side timestamp window absorbs in-flight
// reordering).
type Client struct {
	cfg       ClientConfig
	router    *Router
	invokers  []shardInvoker
	pipelined []*core.PipelinedComposer
	tracer    *obs.Tracer
}

// NewClient builds a sharded client over the environment's endpoint.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Extract == nil {
		cfg.Extract = FullCommandKey
	}
	if cfg.NewInstanceFactory == nil {
		return nil, fmt.Errorf("shard: missing instance factory")
	}
	c := &Client{cfg: cfg, router: NewRouter(cfg.Env.Endpoint, cfg.Shards)}
	for s := 0; s < cfg.Shards; s++ {
		env := cfg.Env
		env.Cluster = env.Cluster.WithLead(s % env.Cluster.N)
		env = env.WithEndpoint(c.router.Endpoint(s))
		if cfg.Pipeline != nil {
			pc, err := core.NewPipelinedComposer(env, cfg.NewInstanceFactory, *cfg.Pipeline)
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("shard: client for shard %d: %w", s, err)
			}
			c.invokers = append(c.invokers, pc)
			c.pipelined = append(c.pipelined, pc)
			continue
		}
		comp, err := core.NewComposer(env, cfg.NewInstanceFactory(env))
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("shard: client for shard %d: %w", s, err)
		}
		c.invokers = append(c.invokers, comp)
	}
	return c, nil
}

// Shards returns the number of shards.
func (c *Client) Shards() int { return c.cfg.Shards }

// ShardFor returns the shard the request routes to.
func (c *Client) ShardFor(req msg.Request) int {
	return ShardOf(c.cfg.Extract(req), c.cfg.Shards)
}

// SetTracer installs the client-side tracer that makes the cluster's head
// sampling decision: one in every N invocations gets a fresh trace ID stamped
// onto the request, which then rides the wire through batches, protocol
// messages, and retransmissions, so every process downstream records spans
// under the same trace. Call before traffic flows.
func (c *Client) SetTracer(t *obs.Tracer) { c.tracer = t }

// Invoke routes the request to its key's shard and blocks until it commits
// there (or ctx is cancelled).
func (c *Client) Invoke(ctx context.Context, req msg.Request) ([]byte, error) {
	shard := c.ShardFor(req)
	if tc := c.tracer.NewTrace(); tc.Sampled() {
		// Stamp the request so downstream spans parent under the root span
		// (span ID = trace ID), then record the root covering the whole
		// send→commit round trip.
		req.Trace = obs.TraceContext{TraceID: tc.TraceID, Parent: tc.TraceID}
		start := time.Now()
		reply, err := c.invokers[shard].Invoke(ctx, req)
		c.tracer.Record(tc, obs.StageSend, shard, start, time.Since(start))
		return reply, err
	}
	return c.invokers[shard].Invoke(ctx, req)
}

// ActiveInstance returns the active instance of shard s's composition.
func (c *Client) ActiveInstance(s int) core.InstanceID { return c.invokers[s].ActiveInstance() }

// Switches returns the instance switches performed on shard s.
func (c *Client) Switches(s int) uint64 { return c.invokers[s].Switches() }

// Close stops the per-shard composers and the router.
func (c *Client) Close() {
	for _, pc := range c.pipelined {
		pc.Close()
	}
	if c.router != nil {
		c.router.Close()
	}
}
