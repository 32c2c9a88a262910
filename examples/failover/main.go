// Failover: demonstrate Abstract switching end to end. An AZyzzyva cluster
// commits requests through ZLight (the Zyzzyva common case); when a replica
// crashes, the speculative instance aborts and the composition switches to
// Backup (PBFT), which keeps the replicated counter live; when the replica
// recovers, the composition works its way back to ZLight.
//
//	go run ./examples/failover
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/compose"
	"abstractbft/internal/deploy"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
)

func main() {
	// AZyzzyva is the declarative schedule "zlight,backup".
	cluster, err := deploy.New(deploy.Config{
		F:            1,
		NewApp:       func() app.Application { return app.NewCounter() },
		Composition:  compose.MustNew("azyzzyva", compose.Options{ViewChangeTimeout: 300 * time.Millisecond}),
		Delta:        20 * time.Millisecond,
		TickInterval: 10 * time.Millisecond,
	})
	if err != nil {
		log.Fatalf("deploy: %v", err)
	}
	defer cluster.Stop()

	client, err := cluster.NewClient(0)
	if err != nil {
		log.Fatalf("client: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	ts := uint64(0)
	run := func(phase string, n int) {
		for i := 0; i < n; i++ {
			ts++
			req := msg.Request{Client: ids.Client(0), Timestamp: ts, Command: []byte("inc")}
			start := time.Now()
			if _, err := client.Invoke(ctx, req); err != nil {
				log.Fatalf("%s: invoke %d: %v", phase, ts, err)
			}
			fmt.Printf("[%s] request %3d committed in %6.2f ms (active instance %d, switches %d)\n",
				phase, ts, float64(time.Since(start).Microseconds())/1000, client.ActiveInstance(), client.Switches())
		}
	}

	run("common case / ZLight ", 5)

	fmt.Println("\n--- crashing replica r3: ZLight can no longer gather 3f+1 matching replies ---")
	cluster.Net.Partition(ids.Replica(3), 1)
	run("degraded / Backup    ", 8)

	fmt.Println("\n--- recovering replica r3 ---")
	cluster.Net.Heal()
	run("recovered            ", 8)

	fmt.Printf("\ntotal instance switches: %d\n", client.Switches())
}
