package host_test

import (
	"context"
	"testing"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/backup"
	"abstractbft/internal/core"
	"abstractbft/internal/history"
	"abstractbft/internal/host"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/quorum"
	"abstractbft/internal/transport"
	"abstractbft/internal/zlight"
)

// forgeries are the ways a Byzantine client c1 can authenticate a REQ carrying
// client c0's request req to instance 1, as sent to replica to.
var forgeries = []struct {
	name string
	auth func(keys *authn.KeyStore, req msg.Request, to ids.ProcessID) authn.Authenticator
}{
	{"c1's own authenticator", func(keys *authn.KeyStore, req msg.Request, _ ids.ProcessID) authn.Authenticator {
		b := core.ClientAuthBytes(1, req.Digest())
		return keys.NewAuthenticator(ids.Client(1), ids.NewCluster(1).Replicas(), b[:])
	}},
	{"sender is the receiving replica", func(_ *authn.KeyStore, _ msg.Request, to ids.ProcessID) authn.Authenticator {
		return authn.Authenticator{Sender: to, Entries: []authn.AuthEntry{{Receiver: to}}}
	}},
	{"c0's authenticator for another instance", func(keys *authn.KeyStore, req msg.Request, _ ids.ProcessID) authn.Authenticator {
		b := core.ClientAuthBytes(2, req.Digest())
		return keys.NewAuthenticator(ids.Client(0), ids.NewCluster(1).Replicas(), b[:])
	}},
}

func TestZLightRejectsForgedRequest(t *testing.T) {
	testRejectsForgedRequest(t, zlight.NewReplica(), func(env core.ClientEnv) core.Instance { return zlight.NewClient(env, 1) })
}

func TestQuorumRejectsForgedRequest(t *testing.T) {
	testRejectsForgedRequest(t, quorum.NewReplica(), func(env core.ClientEnv) core.Instance { return quorum.NewClient(env, 1) })
}

func TestBackupRejectsForgedRequest(t *testing.T) {
	testRejectsForgedRequest(t, backup.NewReplica(backup.ReplicaConfig{K: backup.FixedK(8)}),
		func(env core.ClientEnv) core.Instance { return backup.NewClient(env, 1) })
}

// testRejectsForgedRequest runs one instance on a 4-replica KV cluster per
// forgery: c1 sends every replica a REQ for c0's timestamp-1 put in c0's name,
// then c0 puts its own value at timestamp 1 and reads it back. Every replica
// must apply exactly c0's two requests, and the read must return c0's value.
func testRejectsForgedRequest(t *testing.T, newReplica host.ProtocolFactory, newClient func(core.ClientEnv) core.Instance) {
	for _, forge := range forgeries {
		t.Run(forge.name, func(t *testing.T) {
			cluster := ids.NewCluster(1)
			keys := authn.NewKeyStore("admission-test")
			net := transport.NewLocal(transport.Options{})
			var hosts []*host.Host
			for i := 0; i < cluster.N; i++ {
				r := ids.Replica(i)
				h := host.New(host.Config{
					Cluster:             cluster,
					Replica:             r,
					Keys:                keys,
					App:                 app.NewKVStore(),
					Endpoint:            net.Endpoint(r),
					NewProtocol:         newReplica,
					InstrumentHistories: true,
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

			put := msg.Request{Client: ids.Client(0), Timestamp: 1, Command: app.EncodeKVPut("k", "c0")}
			get := msg.Request{Client: ids.Client(0), Timestamp: 2, Command: app.EncodeKVGet("k")}
			forged := put
			forged.Command = app.EncodeKVPut("k", "forged")
			attacker := net.Endpoint(ids.Client(1))
			for _, r := range cluster.Replicas() {
				attacker.Send(r, &core.RequestMessage{Instance: 1, Req: forged, Auth: forge.auth(keys, forged, r)})
			}
			// An admitted forgery is ordered and executed well within this
			// pause, so c0's own timestamp 1 would then be a retransmission.
			time.Sleep(100 * time.Millisecond)

			checker := core.NewSpecChecker()
			client := newClient(core.ClientEnv{
				Cluster:  cluster,
				Keys:     keys,
				ID:       ids.Client(0),
				Endpoint: net.Endpoint(ids.Client(0)),
				Delta:    20 * time.Millisecond,
				Checker:  checker,
			})
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			var reply []byte
			for _, req := range []msg.Request{put, get} {
				out, err := client.Invoke(ctx, req, nil)
				if err != nil || !out.Committed {
					t.Fatalf("c0's request %d did not commit (err %v)", req.Timestamp, err)
				}
				reply = out.Reply
			}
			if string(reply) != "c0" {
				t.Fatalf("c0 read %q, want its own value %q", reply, "c0")
			}
			if errs := checker.Check(); len(errs) > 0 {
				t.Fatalf("specification violations: %v", errs)
			}

			want := history.DigestHistory{put.Digest(), get.Digest()}.Digest()
			deadline := time.Now().Add(5 * time.Second)
			for i, h := range hosts {
				n, acc := h.AppliedState()
				for (n != 2 || acc != want) && time.Now().Before(deadline) {
					time.Sleep(5 * time.Millisecond)
					n, acc = h.AppliedState()
				}
				if n != 2 || acc != want {
					t.Fatalf("replica %d applied %d requests (digest %x), want exactly c0's put and get", i, n, acc[:4])
				}
			}
		})
	}
}
