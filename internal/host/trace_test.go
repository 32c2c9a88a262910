package host_test

import (
	"testing"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/host"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/obs"
	"abstractbft/internal/transport"
	"abstractbft/internal/zlight"
)

// TestSampledBatchMemberSpans: a sampled request that is one member of a
// four-request ZLight batch carries its trace context on itself alone, and
// the replicas still record its lifecycle under its own trace ID — the
// primary its assembly, ordering and execution, a backup its execution.
func TestSampledBatchMemberSpans(t *testing.T) {
	const members = 4
	keys := authn.NewKeyStore("trace-test")
	net := transport.NewLocal(transport.Options{})
	cluster := ids.NewCluster(1)
	rings := make([]*obs.SpanRing, cluster.N)
	var hosts []*host.Host
	for i := 0; i < cluster.N; i++ {
		rings[i] = obs.NewSpanRing(ids.Replica(i).String(), 0)
		h := host.New(host.Config{
			Cluster:     cluster,
			Replica:     ids.Replica(i),
			Keys:        keys,
			App:         app.NewKVStore(),
			Endpoint:    net.Endpoint(ids.Replica(i)),
			NewProtocol: zlight.NewReplica(),
			// Size-only flushing: the four requests below are one batch.
			Batch:  host.BatchPolicy{MaxBatch: members, MaxDelay: -1},
			Tracer: obs.NewTracerRing(obs.NewRegistry(), 1, rings[i]),
		})
		h.Start()
		hosts = append(hosts, h)
	}
	t.Cleanup(func() {
		for _, h := range hosts {
			h.Stop()
		}
		net.Close()
	})

	// Client 2's request is sampled; it sorts third in the batch, so the
	// batch's context is found among its members, not at its head.
	const traceID = 0x5eed0000cafe
	for c := 0; c < members; c++ {
		env := core.ClientEnv{Cluster: cluster, Keys: keys, ID: ids.Client(c), Endpoint: net.Endpoint(ids.Client(c))}
		req := msg.Request{Client: env.ID, Timestamp: 1, Command: app.EncodeKVPut("k", "v")}
		if c == 2 {
			req.Trace = obs.TraceContext{TraceID: traceID, Parent: traceID}
		}
		env.Endpoint.Send(ids.Replica(0), env.NewRequest(core.FirstInstance, req, nil))
	}
	for _, h := range hosts {
		for deadline := time.Now().Add(5 * time.Second); applied(h) != members; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("applied %d requests, want the batch of %d", applied(h), members)
			}
		}
	}

	stages := func(r *obs.SpanRing) map[string]bool {
		got := map[string]bool{}
		for _, sp := range r.Snapshot() {
			if sp.TraceID != traceID {
				t.Fatalf("span %+v under another trace: only client 2's request is sampled", sp)
			}
			got[sp.Stage] = true
		}
		return got
	}
	primary := stages(rings[0])
	for _, stage := range []string{"assemble", "order", "execute"} {
		if !primary[stage] {
			t.Errorf("primary recorded stages %v, missing %q", primary, stage)
		}
	}
	if backup := stages(rings[1]); !backup["execute"] {
		t.Errorf("backup recorded stages %v, missing \"execute\"", backup)
	}
}
