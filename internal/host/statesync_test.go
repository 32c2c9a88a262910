package host

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/transport"
)

// auditedKV is a KV store whose frozen views are checked as they are read:
// every view remembers the eager serialization of the moment it was frozen,
// fails the test if it serializes to anything else, and counts how often it
// was asked to.
type auditedKV struct {
	*app.KVStore
	t *testing.T
	// serialized counts view serializations per freeze, in freeze order.
	serialized *[]int
}

type auditedView struct {
	app.View
	kv   auditedKV
	n    int
	want []byte
}

func (a auditedKV) Freeze() app.View {
	*a.serialized = append(*a.serialized, 0)
	return auditedView{View: a.KVStore.Freeze(), kv: a, n: len(*a.serialized) - 1, want: a.KVStore.Snapshot()}
}

func (v auditedView) Snapshot() []byte {
	(*v.kv.serialized)[v.n]++
	got := v.View.Snapshot()
	if !bytes.Equal(got, v.want) {
		v.kv.t.Errorf("view of freeze %d serialized to %d bytes that are not the state it was frozen at", v.n, len(got))
	}
	return got
}

// TestFetchStateFromOldBoundary: replicas capture every checkpoint boundary
// as a frozen view and keep executing; a FETCH-STATE pinned two checkpoints
// back is answered with that boundary's state, serialized then and not
// before, the fetcher adopts it and replays the suffix to the servers'
// applied state, and a second fetcher is served the memoized bytes.
func TestFetchStateFromOldBoundary(t *testing.T) {
	const interval, boundaries = 8, 5
	net := transport.NewLocal(transport.Options{})
	t.Cleanup(net.Close)
	keys := authn.NewKeyStore("fetch-old-boundary")
	newHost := func(i int, application app.Application) *Host {
		h := New(Config{
			Cluster:            ids.NewCluster(1),
			Replica:            ids.Replica(i),
			Keys:               keys,
			App:                application,
			Endpoint:           net.Endpoint(ids.Replica(i)),
			NewProtocol:        func(*Host, *InstanceState) ProtocolReplica { return nopReplica{} },
			CheckpointInterval: interval,
		})
		h.Start()
		t.Cleanup(h.Stop)
		return h
	}
	serialized := make([][]int, 2)
	servers := make([]*Host, 2)
	for i := range servers {
		servers[i] = newHost(i, auditedKV{KVStore: app.NewKVStore(), t: t, serialized: &serialized[i]})
		st := servers[i].Bootstrap()
		// Five keys, so every interval overwrites what the boundaries before
		// it froze.
		for ts := uint64(1); ts <= boundaries*interval+3; ts++ {
			batch := msg.BatchOf(msg.Request{Client: ids.Client(0), Timestamp: ts,
				Command: app.EncodeKVPut(fmt.Sprintf("k%d", ts%5), fmt.Sprintf("v%d", ts))})
			servers[i].Locked(func() {
				if _, ok := servers[i].LogBatch(st, batch); !ok {
					t.Fatalf("server %d: log rejected at %d", i, ts)
				}
				servers[i].ExecuteBatch(st, batch)
			})
		}
	}
	wantSeq, wantDigest := servers[0].AppliedState()
	wantState := servers[0].Application().Snapshot()

	const pinned = (boundaries - 2) * interval
	for f, id := range []int{3, 2} {
		fetcher := newHost(id, app.NewKVStore())
		fetcher.SyncState(pinned)
		for deadline := time.Now().Add(5 * time.Second); fetcher.Syncing(); {
			if time.Now().After(deadline) {
				t.Fatalf("fetcher %d: state transfer did not finish", f)
			}
			time.Sleep(time.Millisecond)
		}
		if seq, digest := fetcher.AppliedState(); seq != wantSeq || digest != wantDigest {
			t.Fatalf("fetcher %d: applied (%d, %v) after the transfer, servers (%d, %v)", f, seq, digest, wantSeq, wantDigest)
		}
		if !bytes.Equal(fetcher.Application().Snapshot(), wantState) {
			t.Fatalf("fetcher %d: application state differs from the servers'", f)
		}
		// Only the pinned boundary was ever serialized, once, whoever asked
		// and however often.
		for i := range servers {
			servers[i].Locked(func() {
				for n, count := range serialized[i] {
					want := 0
					if boundary := (n + 1) * interval; boundary == pinned {
						want = 1
					}
					if count != want {
						t.Errorf("after fetch %d: server %d serialized the boundary at %d %d times, want %d", f, i, (n+1)*interval, count, want)
					}
				}
				t.Logf("after fetch %d: server %d serialized its boundaries %v times", f, i, serialized[i])
			})
		}
	}
}
