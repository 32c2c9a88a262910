package backup

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/history"
	"abstractbft/internal/host"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/transport"
)

func TestExponentialK(t *testing.T) {
	cases := []struct {
		name         string
		initial, max uint64
		index        int
		lowLoad      bool
		want         uint64
	}{
		{"first backup commits initial", 1, 64, 0, false, 1},
		{"doubles per backup index", 1, 64, 1, false, 2},
		{"doubles again", 1, 64, 3, false, 8},
		{"scales from initial", 3, 64, 2, false, 12},
		{"capped at max", 1, 64, 10, false, 64},
		{"cap applies to a non-power-of-two max", 3, 20, 3, false, 20},
		{"low load flattens to one", 8, 64, 4, true, 1},
		{"zero initial defaults to one", 0, 64, 2, false, 4},
		{"zero max defaults to 1<<20", 1, 0, 30, false, 1 << 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := ExponentialK(tc.initial, tc.max)(tc.index, tc.lowLoad); got != tc.want {
				t.Fatalf("ExponentialK(%d, %d)(%d, %v) = %d, want %d",
					tc.initial, tc.max, tc.index, tc.lowLoad, got, tc.want)
			}
		})
	}
}

func TestFixedK(t *testing.T) {
	cases := []struct {
		k       uint64
		index   int
		lowLoad bool
		want    uint64
	}{
		{5, 0, false, 5},
		{5, 7, false, 5},
		{5, 3, true, 5},
		{0, 2, false, 1},
	}
	for _, tc := range cases {
		if got := FixedK(tc.k)(tc.index, tc.lowLoad); got != tc.want {
			t.Errorf("FixedK(%d)(%d, %v) = %d, want %d", tc.k, tc.index, tc.lowLoad, got, tc.want)
		}
	}
}

// TestBackupCommitsKThenAborts runs one Backup instance on a 4-replica
// in-process cluster: it commits exactly k requests, and the next one is
// answered with signed aborts whose history is those k requests, in order.
func TestBackupCommitsKThenAborts(t *testing.T) {
	const k = 3
	cluster := ids.NewCluster(1)
	keys := authn.NewKeyStore("backup-test")
	net := transport.NewLocal(transport.Options{})
	var hosts []*host.Host
	for i := 0; i < cluster.N; i++ {
		r := ids.Replica(i)
		h := host.New(host.Config{
			Cluster:             cluster,
			Replica:             r,
			Keys:                keys,
			App:                 app.NewCounter(),
			Endpoint:            net.Endpoint(r),
			NewProtocol:         NewReplica(ReplicaConfig{K: FixedK(k)}),
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

	checker := core.NewSpecChecker()
	env := core.ClientEnv{
		Cluster:  cluster,
		Keys:     keys,
		ID:       ids.Client(0),
		Endpoint: net.Endpoint(ids.Client(0)),
		Delta:    20 * time.Millisecond,
		Checker:  checker,
	}
	client := NewClient(env, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var committed history.DigestHistory
	for ts := uint64(1); ts <= k+1; ts++ {
		req := msg.Request{Client: env.ID, Timestamp: ts, Command: []byte(fmt.Sprintf("b-%d", ts))}
		out, err := client.Invoke(ctx, req, nil)
		if err != nil {
			t.Fatalf("invoke %d: %v", ts, err)
		}
		if ts <= k {
			if !out.Committed {
				t.Fatalf("request %d aborted; Backup must commit the first k=%d", ts, k)
			}
			committed = append(committed, req.Digest())
			continue
		}
		if out.Committed || out.Abort == nil {
			t.Fatalf("request %d committed; Backup must abort after k=%d", ts, k)
		}
		init := out.Abort.Init
		if init.Extract.BaseSeq != 0 || !reflect.DeepEqual(init.Extract.Suffix, committed) {
			t.Fatalf("abort history = base %d, suffix %x; want base 0, suffix %x (the k committed requests in order)",
				init.Extract.BaseSeq, init.Extract.Suffix, committed)
		}
		if len(init.Proof) < cluster.Quorum() {
			t.Fatalf("abort proof has %d signed aborts, want at least %d", len(init.Proof), cluster.Quorum())
		}
		for _, s := range init.Proof {
			if err := s.Verify(keys); err != nil {
				t.Fatalf("abort signed by %v does not verify: %v", s.Abort.Replica, err)
			}
			if !reflect.DeepEqual(s.Abort.Report.Suffix, committed) {
				t.Fatalf("replica %v signed history %x, want %x", s.Abort.Replica, s.Abort.Report.Suffix, committed)
			}
		}
	}
	if errs := checker.Check(); len(errs) > 0 {
		t.Fatalf("specification violations: %v", errs)
	}

	// Every replica executes exactly the k committed requests: the aborted one
	// never reaches the application.
	deadline := time.Now().Add(5 * time.Second)
	for i, h := range hosts {
		for applied(h) < k && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := applied(h); got != k {
			t.Fatalf("replica %d applied %d requests, want exactly k=%d", i, got, k)
		}
	}
}

// applied returns the number of requests h applied to its application.
func applied(h *host.Host) uint64 {
	n, _ := h.AppliedState()
	return n
}
