package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"abstractbft/internal/msg"
)

// convergeTimeout bounds how long a quiet plane may take to agree (the
// sharded plane's idle shards fill their merge epochs with null operations on
// a timer, so agreement is reached a little after the last request).
const convergeTimeout = 10 * time.Second

// checkOutputs validates a halted session's outputs; every returned string is
// a failure that invalidates the run.
func checkOutputs(ctx context.Context, s *session) []string {
	var errs []string
	if s.lg.oracle != nil {
		errs = append(errs, readBack(ctx, s)...)
	}
	if err := awaitAgreement(s.p.states, convergeTimeout); err != nil {
		errs = append(errs, err.Error())
	} else if s.lg.oracle == nil {
		// Every acknowledged request was applied (the sharded plane's applied
		// sequences also count null operations, so the bound holds only here).
		committed := s.lg.committed.Load()
		if applied := s.p.states()[0][0].Seq; applied < committed {
			errs = append(errs, fmt.Sprintf("replicas applied %d requests, clients were acknowledged %d", applied, committed))
		}
	}
	if n := s.p.switches(); n != 0 {
		errs = append(errs, fmt.Sprintf("compose.switches = %d, want 0 (the workloads are sized so no instance aborts)", n))
	}
	return errs
}

// statesAgree compares every replica's state pieces with replica 0's.
func statesAgree(states [][]replicaState) error {
	for r := 1; r < len(states); r++ {
		if len(states[r]) != len(states[0]) {
			return fmt.Errorf("replica %d reports %d state pieces, replica 0 reports %d", r, len(states[r]), len(states[0]))
		}
		for i, st := range states[r] {
			if ref := states[0][i]; st.Seq != ref.Seq || st.Digest != ref.Digest {
				return fmt.Errorf("replicas diverge on %s: replica 0 at seq %d digest %v, replica %d at seq %d digest %v",
					ref.Label, ref.Seq, ref.Digest, r, st.Seq, st.Digest)
			}
		}
	}
	return nil
}

// awaitAgreement polls until all replicas report the same state or the
// timeout passes.
func awaitAgreement(states func() [][]replicaState, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		err := statesAgree(states())
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// readBack reads every written key through the clients and checks that the
// last acknowledged put is what comes back.
func readBack(ctx context.Context, s *session) []string {
	commands, checks := s.lg.oracle.readBack()
	var (
		mu   sync.Mutex
		errs []string
		wg   sync.WaitGroup
	)
	// One reader per stream, striding the key list, with the stream's client
	// identity and timestamp counter.
	for i, st := range s.lg.streams {
		wg.Add(1)
		go func(i int, st *stream) {
			defer wg.Done()
			for j := i; j < len(commands); j += len(s.lg.streams) {
				req := msg.Request{Client: st.id, Timestamp: st.ts.Add(1), Command: commands[j]}
				reply, err := st.inv.Invoke(ctx, req)
				st.attempted++
				if err == nil {
					err = checks[j](reply)
				}
				if err != nil {
					st.failed++
					mu.Lock()
					if len(errs) < 5 {
						errs = append(errs, fmt.Sprintf("read-back: %v", err))
					}
					mu.Unlock()
				}
			}
		}(i, st)
	}
	wg.Wait()
	return errs
}
