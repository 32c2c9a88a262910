package deploy_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/compose"
	"abstractbft/internal/core"
	"abstractbft/internal/deploy"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
)

func newCluster(t *testing.T, name string) *deploy.Cluster {
	t.Helper()
	c, err := deploy.New(deploy.Config{
		F:           1,
		NewApp:      func() app.Application { return app.NewKVStore() },
		Composition: compose.MustNew(name, compose.Options{}),
		Delta:       50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	t.Cleanup(c.Stop)
	return c
}

// runPipelined drives one pipelined client with depth concurrent streams
// sharing a timestamp counter, and asserts every request commits.
func runPipelined(t *testing.T, client *core.PipelinedComposer, depth, total int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var ts atomic.Uint64
	var wg sync.WaitGroup
	errCh := make(chan error, depth)
	for w := 0; w < depth; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := ts.Add(1)
				if n > uint64(total) {
					return
				}
				req := msg.Request{Client: ids.Client(0), Timestamp: n, Command: app.EncodeKVPut(fmt.Sprintf("k%d", n), "v")}
				if _, err := client.Invoke(ctx, req); err != nil {
					errCh <- fmt.Errorf("invoke %d: %w", n, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestPipelinedClientQuorumBatchesInFlight pipelines invocations over Aliph's
// Quorum instance, where in-flight requests coalesce into client-side batch
// messages. Concurrent invocations of one client may race the per-client
// timestamp ordering; the composition must still commit every request
// (possibly after switching instances), never lose or duplicate one.
func TestPipelinedClientQuorumBatchesInFlight(t *testing.T) {
	c := newCluster(t, "aliph")
	client, err := c.NewPipelinedClient(0, core.PipelineOptions{Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	runPipelined(t, client, 4, 40)
}

// TestPipelinedClientZLight pipelines invocations over AZyzzyva's ZLight
// instance (no client-side batching; the primary's assembler batches across
// the in-flight requests instead).
func TestPipelinedClientZLight(t *testing.T) {
	c := newCluster(t, "azyzzyva")
	client, err := c.NewPipelinedClient(0, core.PipelineOptions{Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	runPipelined(t, client, 4, 40)
}

// TestPipelinedClientDepthOneMatchesComposer checks the degenerate pipeline
// (depth 1): strict invoke-then-wait, equivalent to the plain Composer.
func TestPipelinedClientDepthOneMatchesComposer(t *testing.T) {
	c := newCluster(t, "aliph")
	client, err := c.NewPipelinedClient(0, core.PipelineOptions{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	runPipelined(t, client, 1, 15)
	if client.Switches() != 0 {
		t.Fatalf("sequential single client switched instances %d times, want 0", client.Switches())
	}
}
