package host_test

import (
	"context"
	"encoding/binary"
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
	"abstractbft/internal/pbft"
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
			keys := authn.NewKeyStore("admission-test")
			net := transport.NewLocal(transport.Options{})
			hosts := kvCluster(t, net, keys, newReplica, ids.NewCluster(1).Replicas()...)
			forged := c0Put
			forged.Command = app.EncodeKVPut("k", "forged")
			attacker := net.Endpoint(ids.Client(1))
			for _, r := range ids.NewCluster(1).Replicas() {
				attacker.Send(r, &core.RequestMessage{Instance: 1, Req: forged, Auth: forge.auth(keys, forged, r)})
			}
			// An admitted forgery is ordered and executed well within this
			// pause, so c0's own timestamp 1 would then be a retransmission.
			time.Sleep(100 * time.Millisecond)
			c0PutsAndGets(t, net, keys, hosts, newClient)
		})
	}
}

// TestBackupRejectsForgedPrePrepare: r1-r3 run Backup, and the test drives
// r0, the primary of PBFT's view 0. It sends each of them a MAC'd
// pre-prepare of a put in c0's name that c0 never sent, with an authenticator
// that c0 did not make, or of k null operations, which PBFT never orders and
// which would use up the instance's k. No replica may apply the batch, and
// c0's own put and get must then commit through the next view's primary.
func TestBackupRejectsForgedPrePrepare(t *testing.T) {
	forged := c0Put
	forged.Command = app.EncodeKVPut("k", "forged")
	var nulls []msg.Request
	var nullAuths []authn.Authenticator
	for ts := uint64(1); ts <= 8; ts++ {
		nulls = append(nulls, msg.Request{Client: ids.NullOp, Timestamp: ts})
		nullAuths = append(nullAuths, authn.Authenticator{Sender: ids.NullOp})
	}
	for _, forge := range []struct {
		name  string
		batch []msg.Request
		auths func(keys *authn.KeyStore) []authn.Authenticator
	}{
		{"zero authenticator", []msg.Request{forged}, func(*authn.KeyStore) []authn.Authenticator { return []authn.Authenticator{{}} }},
		{"c1's own authenticator", []msg.Request{forged}, func(keys *authn.KeyStore) []authn.Authenticator {
			return []authn.Authenticator{forgeries[0].auth(keys, forged, ids.Replica(1))}
		}},
		{"null operations", nulls, func(*authn.KeyStore) []authn.Authenticator { return nullAuths }},
	} {
		t.Run(forge.name, func(t *testing.T) {
			keys := authn.NewKeyStore("admission-test")
			net := transport.NewLocal(transport.Options{})
			newReplica := backup.NewReplica(backup.ReplicaConfig{K: backup.FixedK(8), ViewChangeTimeout: 100 * time.Millisecond})
			hosts := kvCluster(t, net, keys, newReplica, ids.Replica(1), ids.Replica(2), ids.Replica(3))
			primary := net.Endpoint(ids.Replica(0))
			digest := msg.Batch{Requests: forge.batch}.Digest()
			for _, r := range hosts {
				// The MAC'd bytes of a pre-prepare: tag 'P', view, seq, digest.
				data := make([]byte, 17, 17+authn.DigestSize)
				data[0] = 'P'
				binary.BigEndian.PutUint64(data[1:9], 0)
				binary.BigEndian.PutUint64(data[9:17], 1)
				data = append(data, digest[:]...)
				pp := &pbft.PrePrepare{View: 0, Seq: 1, Batch: forge.batch, Auths: forge.auths(keys), Digest: digest,
					MAC: keys.MAC(ids.Replica(0), r.ID(), data)}
				primary.Send(r.ID(), &backup.WrappedMessage{Instance: 1, Inner: pp})
			}
			time.Sleep(100 * time.Millisecond)
			for _, h := range hosts {
				if n := applied(h); n != 0 {
					t.Fatalf("replica %v applied %d requests of a forged pre-prepare, want 0", h.ID(), n)
				}
			}
			c0PutsAndGets(t, net, keys, hosts, func(env core.ClientEnv) core.Instance { return backup.NewClient(env, 1) })
		})
	}
}

// c0Put and c0Get are c0's own requests: it puts its value and reads it back.
var (
	c0Put = msg.Request{Client: ids.Client(0), Timestamp: 1, Command: app.EncodeKVPut("k", "c0")}
	c0Get = msg.Request{Client: ids.Client(0), Timestamp: 2, Command: app.EncodeKVGet("k")}
)

// kvCluster starts the hosts of the given replicas of a 4-replica KV cluster
// on net, each running newReplica, and stops them when the test ends.
func kvCluster(t *testing.T, net *transport.Local, keys *authn.KeyStore, newReplica host.ProtocolFactory, replicas ...ids.ProcessID) []*host.Host {
	var hosts []*host.Host
	for _, r := range replicas {
		h := host.New(host.Config{
			Cluster:             ids.NewCluster(1),
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
	return hosts
}

// c0PutsAndGets has c0 commit c0Put and c0Get through newClient's instance
// 1. The read must return c0's value, the checker must be clean, and every
// host must apply exactly those two requests.
func c0PutsAndGets(t *testing.T, net *transport.Local, keys *authn.KeyStore, hosts []*host.Host, newClient func(core.ClientEnv) core.Instance) {
	t.Helper()
	checker := core.NewSpecChecker()
	client := newClient(core.ClientEnv{
		Cluster:  ids.NewCluster(1),
		Keys:     keys,
		ID:       ids.Client(0),
		Endpoint: net.Endpoint(ids.Client(0)),
		Delta:    20 * time.Millisecond,
		Checker:  checker,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var reply []byte
	for _, req := range []msg.Request{c0Put, c0Get} {
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

	want := history.DigestHistory{c0Put.Digest(), c0Get.Digest()}.Digest()
	deadline := time.Now().Add(5 * time.Second)
	for _, h := range hosts {
		n, acc := h.AppliedState()
		for (n != 2 || acc != want) && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			n, acc = h.AppliedState()
		}
		if n != 2 || acc != want {
			t.Fatalf("replica %v applied %d requests (digest %x), want exactly c0's put and get", h.ID(), n, acc[:4])
		}
	}
}
