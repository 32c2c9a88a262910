// Contention: drive an Aliph cluster through the paper's intro scenario —
// a contention-free phase served by Quorum, a contended phase that makes
// Quorum abort and Chain take over, and a return to a single client that
// triggers the low-load optimization and brings the composition back to
// Quorum.
//
//	go run ./examples/contention
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/compose"
	"abstractbft/internal/core"
	"abstractbft/internal/deploy"
	"abstractbft/internal/host"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/workload"
)

func main() {
	// Batching is on by default (MaxBatch 16, MaxDelay 1ms): under the
	// contended phase, Chain's head coalesces concurrent client requests
	// into multi-request batches that cross the pipeline as one message.
	batch := host.BatchPolicy{MaxBatch: host.DefaultMaxBatch, MaxDelay: host.DefaultMaxDelay}
	// Aliph is the declarative schedule "quorum,chain,backup"; its low-load
	// optimization is one option on the composition.
	cluster, err := deploy.New(deploy.Config{
		F:            1,
		NewApp:       func() app.Application { return app.NewNull(0) },
		Composition:  compose.MustNew("aliph", compose.Options{LowLoadAfter: 400 * time.Millisecond}),
		Delta:        20 * time.Millisecond,
		TickInterval: 10 * time.Millisecond,
		Batch:        batch,
	})
	if err != nil {
		log.Fatalf("deploy: %v", err)
	}
	defer cluster.Stop()
	fmt.Printf("batching: MaxBatch=%d MaxDelay=%v (set MaxBatch=1 for the per-request path)\n\n", batch.MaxBatch, batch.MaxDelay)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	fmt.Println("phase 1: a single client — Quorum commits in one round trip")
	solo, err := cluster.NewClient(0)
	if err != nil {
		log.Fatal(err)
	}
	ts := uint64(0)
	for i := 0; i < 10; i++ {
		ts++
		if _, err := solo.Invoke(ctx, msg.Request{Client: ids.Client(0), Timestamp: ts, Command: []byte("q")}); err != nil {
			log.Fatalf("phase 1: %v", err)
		}
	}
	spec := compose.MustParse("aliph")
	fmt.Printf("  active instance: %d (%s), switches: %d\n\n", solo.ActiveInstance(), spec.ProtocolAt(solo.ActiveInstance()), solo.Switches())

	fmt.Println("phase 2: 6 concurrent clients — contention aborts Quorum, Chain takes over")
	phase2 := make([]*core.Composer, 6)
	res, err := workload.RunClosedLoop(ctx, workload.ClosedLoopConfig{Clients: 6, RequestsPerClient: 20}, func(i int) (workload.Invoker, ids.ProcessID, error) {
		client, err := cluster.NewClient(i + 1)
		if err != nil {
			return nil, 0, err
		}
		phase2[i] = client
		return workload.InvokerFunc(func(ctx context.Context, req msg.Request) ([]byte, error) {
			return client.Invoke(ctx, req)
		}), ids.Client(i + 1), nil
	})
	if err != nil {
		log.Fatalf("phase 2: %v", err)
	}
	// A clean hand-over ends phase 2 within Chain's 5Δ timer, in instance 2;
	// instance 3 (Backup) means a Chain timer expired.
	var highest core.InstanceID
	for _, c := range phase2 {
		highest = max(highest, c.ActiveInstance())
	}
	fmt.Printf("  committed %d requests in %v at %.0f req/s, mean latency %.2f ms\n",
		res.Committed, res.Elapsed.Round(time.Millisecond), res.ThroughputOps(), float64(res.Latency.Mean().Microseconds())/1000)
	fmt.Printf("  highest instance reached: %d (%s)\n\n", highest, spec.ProtocolAt(highest))

	fmt.Println("phase 3: back to a single client — the low-load optimization returns to Quorum")
	var lastRole string
	var mu sync.Mutex
	for i := 0; i < 300; i++ {
		ts++
		if _, err := solo.Invoke(ctx, msg.Request{Client: ids.Client(0), Timestamp: ts, Command: []byte("q")}); err != nil {
			log.Fatalf("phase 3: %v", err)
		}
		mu.Lock()
		lastRole = spec.ProtocolAt(solo.ActiveInstance())
		mu.Unlock()
		if lastRole == "quorum" && solo.Switches() > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("  active instance: %d (%s), total switches by this client: %d\n",
		solo.ActiveInstance(), spec.ProtocolAt(solo.ActiveInstance()), solo.Switches())
}
