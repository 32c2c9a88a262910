package compose_test

import (
	"sync"
	"testing"
	"time"

	"abstractbft/internal/chain"
	"abstractbft/internal/compose"
	"abstractbft/internal/core"
	"abstractbft/internal/deploy"
	"abstractbft/internal/host"
	"abstractbft/internal/ids"
	"abstractbft/internal/transport"
	"abstractbft/internal/zlight"
)

// spanReorderer is a transport.Local Delayer that holds back every other
// sequenced span (ZLight ORDER, Chain batch) to each replica, so the span
// sent next overtakes it and the replica must buffer spans that arrive ahead
// of its history. It counts the overtakes it caused.
type spanReorderer struct {
	hold time.Duration

	mu        sync.Mutex
	sent      map[ids.ProcessID]int
	held      map[ids.ProcessID]heldSpan
	overtakes int
}

type heldSpan struct {
	seq   uint64
	until time.Time
}

func (r *spanReorderer) delay(from, to ids.ProcessID, payload any) time.Duration {
	var seq uint64
	switch m := payload.(type) {
	case *zlight.OrderMessage:
		seq = m.Seq
	case *chain.BatchMessage:
		seq = m.Seq
	default:
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sent[to]++
	now := time.Now()
	if r.sent[to]%2 == 1 {
		r.held[to] = heldSpan{seq: seq, until: now.Add(r.hold)}
		return r.hold
	}
	if h, ok := r.held[to]; ok && seq > h.seq && now.Before(h.until) {
		r.overtakes++
	}
	return 0
}

// TestReorderedSpansCommitWithoutSwitch delivers ZLight's ORDERs and Chain's
// batches out of order: every request must still commit in the first
// instance, with no switch, and the run must satisfy the specification.
// Batches of at most two requests give the orderer several spans in flight
// at once, so the overtakes the test asserts actually happen.
func TestReorderedSpansCommitWithoutSwitch(t *testing.T) {
	for _, dsl := range []string{"azyzzyva", "chain-backup"} {
		t.Run(dsl, func(t *testing.T) {
			r := &spanReorderer{hold: 3 * time.Millisecond, sent: map[ids.ProcessID]int{}, held: map[ids.ProcessID]heldSpan{}}
			checker := core.NewSpecChecker()
			comp, err := compose.New(compose.MustParse(dsl), compose.Options{ViewChangeTimeout: 300 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			c, err := deploy.New(deploy.Config{
				F:                   1,
				NewApp:              newCounter,
				Composition:         comp,
				Delta:               50 * time.Millisecond,
				Batch:               host.BatchPolicy{MaxBatch: 2},
				Network:             transport.Options{Delay: r.delay},
				InstrumentHistories: true,
				Checker:             checker,
				TickInterval:        10 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Stop)
			for i, client := range driveClients(t, c, 8, 10, "o") {
				if n := client.Switches(); n != 0 {
					t.Errorf("client %d switched %d times under reordering", i, n)
				}
			}
			if errs := checker.Check(); len(errs) > 0 {
				t.Fatalf("specification violations under %q: %v", dsl, errs)
			}
			r.mu.Lock()
			defer r.mu.Unlock()
			if r.overtakes == 0 {
				t.Fatal("no span overtook a held one: the run did not exercise reordering")
			}
			t.Logf("%d spans overtook a held one", r.overtakes)
		})
	}
}
