package host_test

import (
	"sync"
	"testing"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/host"
	"abstractbft/internal/ids"
	"abstractbft/internal/transport"
	"abstractbft/internal/zlight"
)

// senderCluster starts r0-r2 of a 4-replica cluster running ZLight on the KV
// application with a checkpoint every 4 requests, and has c0 invoke
// instance 1 with c0Put, so r1 logs and executes it. GC stays on: history
// instrumentation would turn it off. r3's endpoint is left to the test. The
// returned recorder sees every envelope the network carries.
func senderCluster(t *testing.T) (*transport.Local, *envelopeLog, []*host.Host) {
	t.Helper()
	keys := authn.NewKeyStore("sender-test")
	net := transport.NewLocal(transport.Options{})
	log := &envelopeLog{}
	net.AddFilter(log.record)
	var hosts []*host.Host
	for _, r := range []ids.ProcessID{ids.Replica(0), ids.Replica(1), ids.Replica(2)} {
		h := host.New(host.Config{
			Cluster:            ids.NewCluster(1),
			Replica:            r,
			Keys:               keys,
			App:                app.NewKVStore(),
			Endpoint:           net.Endpoint(r),
			NewProtocol:        zlight.NewReplica(),
			CheckpointInterval: 4,
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
	c0 := core.ClientEnv{Cluster: ids.NewCluster(1), Keys: keys, ID: ids.Client(0), Endpoint: net.Endpoint(ids.Client(0))}
	c0.Endpoint.Send(ids.Replica(0), c0.NewRequest(1, c0Put, nil))
	for deadline := time.Now().Add(5 * time.Second); applied(hosts[1]) != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("r1 applied %d requests, want c0's put (test setup)", applied(hosts[1]))
		}
	}
	return net, log, hosts
}

// envelopeLog records the envelopes a Local network carries.
type envelopeLog struct {
	mu   sync.Mutex
	envs []transport.Envelope
}

func (l *envelopeLog) record(env transport.Envelope) bool {
	l.mu.Lock()
	l.envs = append(l.envs, env)
	l.mu.Unlock()
	return true
}

// recipients returns the receivers of the payloads that match.
func (l *envelopeLog) recipients(match func(any) bool) []ids.ProcessID {
	l.mu.Lock()
	defer l.mu.Unlock()
	var to []ids.ProcessID
	for _, env := range l.envs {
		if match(env.Payload) {
			to = append(to, env.To)
		}
	}
	return to
}

// TestForgedCheckpointVotesIgnored: a CHECKPOINT is the vote of its
// envelope's sender. A client or a single replica that sends r1 four
// CHECKPOINTs agreeing on a forged digest casts at most one vote, so r1's
// stable checkpoint, which needs all four replicas, does not move.
func TestForgedCheckpointVotesIgnored(t *testing.T) {
	for _, attacker := range []ids.ProcessID{ids.Client(1), ids.Replica(3)} {
		t.Run(attacker.String(), func(t *testing.T) {
			net, _, hosts := senderCluster(t)
			forged := authn.Hash([]byte("forged checkpoint"))
			ep := net.Endpoint(attacker)
			for i := 0; i < 4; i++ {
				ep.Send(ids.Replica(1), &core.CheckpointMessage{AbstractID: 1, Counter: 1000, StateDigest: forged})
			}
			time.Sleep(50 * time.Millisecond)
			if stable, _ := hosts[1].CheckpointStatus(); stable != 0 {
				t.Fatalf("r1's stable checkpoint moved to %d on %v's forged votes, want 0", stable, attacker)
			}
		})
	}
}

// TestControlRepliesGoToTheirSender: r1 answers a PANIC and a FETCH to the
// envelope's sender, whoever the request concerns, and answers no FETCH
// from a client.
func TestControlRepliesGoToTheirSender(t *testing.T) {
	isAbort := func(p any) bool { _, ok := p.(*core.AbortReply); return ok }
	isFetched := func(p any) bool { _, ok := p.(*core.FetchResponse); return ok }
	await := func(log *envelopeLog, match func(any) bool) []ids.ProcessID {
		for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if to := log.recipients(match); len(to) > 0 {
				return to
			}
		}
		return nil
	}

	t.Run("PANIC", func(t *testing.T) {
		net, log, _ := senderCluster(t)
		net.Endpoint(ids.Client(1)).Send(ids.Replica(1), &core.PanicMessage{Instance: 1, Timestamp: c0Put.Timestamp})
		if to := await(log, isAbort); len(to) != 1 || to[0] != ids.Client(1) {
			t.Fatalf("c1's PANIC was answered to %v, want [c1]", to)
		}
	})

	t.Run("FETCH", func(t *testing.T) {
		net, log, _ := senderCluster(t)
		fetch := &core.FetchRequest{Instance: 1, Digests: []authn.Digest{c0Put.Digest()}}
		net.Endpoint(ids.Replica(3)).Send(ids.Replica(1), fetch)
		if to := await(log, isFetched); len(to) != 1 || to[0] != ids.Replica(3) {
			t.Fatalf("r3's FETCH was answered to %v, want [r3]", to)
		}
	})

	t.Run("FETCH from a client", func(t *testing.T) {
		net, log, _ := senderCluster(t)
		fetch := &core.FetchRequest{Instance: 1, Digests: []authn.Digest{c0Put.Digest()}}
		net.Endpoint(ids.Client(1)).Send(ids.Replica(1), fetch)
		time.Sleep(50 * time.Millisecond)
		if to := log.recipients(isFetched); len(to) != 0 {
			t.Fatalf("c1's FETCH was answered to %v, want no answer", to)
		}
	})
}

// applied returns the number of requests h applied to its application.
func applied(h *host.Host) uint64 {
	n, _ := h.AppliedState()
	return n
}
