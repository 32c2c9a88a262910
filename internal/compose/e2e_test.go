package compose_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/compose"
	"abstractbft/internal/core"
	"abstractbft/internal/deploy"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/transport"
)

// newComposedCluster deploys an f=1 cluster running the given schedule with
// history instrumentation, so the run can be validated against the Abstract
// specification.
func newComposedCluster(t *testing.T, dsl string, checker *core.SpecChecker) *deploy.Cluster {
	t.Helper()
	return deployComposition(t, dsl, compose.Options{}, newCounter, checker)
}

// deployComposition is newComposedCluster with the composition options and
// the application chosen by the caller; a zero ViewChangeTimeout selects
// 300 ms so crash tests switch promptly.
func deployComposition(t *testing.T, dsl string, opts compose.Options, newApp func() app.Application, checker *core.SpecChecker) *deploy.Cluster {
	t.Helper()
	if opts.ViewChangeTimeout == 0 {
		opts.ViewChangeTimeout = 300 * time.Millisecond
	}
	comp, err := compose.New(compose.MustParse(dsl), opts)
	if err != nil {
		t.Fatalf("compose %q: %v", dsl, err)
	}
	c, err := deploy.New(deploy.Config{
		F:                   1,
		NewApp:              newApp,
		Composition:         comp,
		Delta:               25 * time.Millisecond,
		InstrumentHistories: true,
		Checker:             checker,
		TickInterval:        10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("deploy %q: %v", dsl, err)
	}
	t.Cleanup(c.Stop)
	return c
}

func newCounter() app.Application { return app.NewCounter() }

func newKVStore() app.Application { return app.NewKVStore() }

// driveClients runs clients concurrent closed-loop clients of c, perClient
// requests each, and fails the test unless every request commits. It returns
// the clients' composers for the caller's switch assertions.
func driveClients(t *testing.T, c *deploy.Cluster, clients, perClient int, tag string) []*core.Composer {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	composers := make([]*core.Composer, clients)
	for i := 0; i < clients; i++ {
		client, err := c.NewClient(i)
		if err != nil {
			t.Fatal(err)
		}
		composers[i] = client
		wg.Add(1)
		go func(i int, client *core.Composer) {
			defer wg.Done()
			for ts := uint64(1); ts <= uint64(perClient); ts++ {
				req := msg.Request{Client: ids.Client(i), Timestamp: ts, Command: []byte(fmt.Sprintf("%s%d-%d", tag, i, ts))}
				if _, err := client.Invoke(ctx, req); err != nil {
					errCh <- fmt.Errorf("client %d invoke %d: %w", i, ts, err)
					return
				}
			}
		}(i, client)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	return composers
}

// TestEveryRegisteredCompositionE2E drives every schedule in the registry —
// including the compositions that existed only as DSL strings until this API
// (zlight-chain-backup, chain-backup) — through a concurrent workload under
// the specification checker: Validity, Commit/Abort/Init Order, and
// Composition Order must hold for every registered Spec, not just Aliph and
// AZyzzyva.
func TestEveryRegisteredCompositionE2E(t *testing.T) {
	names := compose.SpecNames()
	if len(names) < 4 {
		t.Fatalf("registry has %d schedules, want at least 4: %v", len(names), names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			checker := core.NewSpecChecker()
			c := newComposedCluster(t, name, checker)
			driveClients(t, c, 4, 10, "c")
			if errs := checker.Check(); len(errs) > 0 {
				t.Fatalf("specification violations under %q: %v", name, errs)
			}
		})
	}
}

// TestStandalonePBFTSpecE2E drives the one-stage "pbft" Spec — the backup
// engine without the k-bound, registered so backup-only deployments are
// expressible in the DSL. The instance must never abort: a concurrent
// workload commits entirely on instance 1 with zero client switches, and the
// run satisfies the specification.
func TestStandalonePBFTSpecE2E(t *testing.T) {
	checker := core.NewSpecChecker()
	c := newComposedCluster(t, "pbft", checker)
	for i, client := range driveClients(t, c, 4, 10, "p") {
		if n := client.Switches(); n != 0 {
			t.Errorf("client %d switched %d times; the unbounded pbft stage must never abort", i, n)
		}
		if inst := client.ActiveInstance(); inst != 1 {
			t.Errorf("client %d ended on instance %d, want 1", i, inst)
		}
	}
	if errs := checker.Check(); len(errs) > 0 {
		t.Fatalf("specification violations under \"pbft\": %v", errs)
	}
}

// TestNewCompositionsSurviveCrash proves the two previously-unbuildable
// schedules are real protocols, not just happy paths: with a crashed replica
// the optimistic stages cannot commit, so the composition must switch its
// way to a strong stage and keep the service live, and the whole run must
// still satisfy the specification.
func TestNewCompositionsSurviveCrash(t *testing.T) {
	for _, dsl := range []string{"zlight-chain-backup", "chain-backup"} {
		t.Run(dsl, func(t *testing.T) {
			checker := core.NewSpecChecker()
			c := newComposedCluster(t, dsl, checker)
			client, err := c.NewClient(0)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()

			c.Net.Partition(ids.Replica(1), 1)
			for ts := uint64(1); ts <= 10; ts++ {
				req := msg.Request{Client: ids.Client(0), Timestamp: ts, Command: []byte("y")}
				if _, err := client.Invoke(ctx, req); err != nil {
					t.Fatalf("invoke %d with crashed replica: %v", ts, err)
				}
			}
			if client.Switches() == 0 {
				t.Error("expected instance switches under a crashed replica")
			}
			spec := compose.MustParse(dsl)
			if proto := spec.ProtocolAt(client.ActiveInstance()); proto != "backup" {
				t.Errorf("composition settled on %q (instance %d), want the strong stage",
					proto, client.ActiveInstance())
			}
			if errs := checker.Check(); len(errs) > 0 {
				t.Fatalf("specification violations under %q: %v", dsl, errs)
			}
		})
	}
}

// TestSlowHeadSwitchesAndCommits slows replica 0 instead of crashing it:
// every message it sends takes 4Δ. The optimistic stages miss their client
// timers, so clients panic and the composition switches, and the run must
// still commit every request and satisfy the specification.
func TestSlowHeadSwitchesAndCommits(t *testing.T) {
	const delta = 25 * time.Millisecond
	slowHead := func(from, to ids.ProcessID, payload any) time.Duration {
		if from == ids.Replica(0) {
			return 4 * delta
		}
		return 0
	}
	for _, dsl := range []string{"aliph", "azyzzyva"} {
		t.Run(dsl, func(t *testing.T) {
			checker := core.NewSpecChecker()
			comp, err := compose.New(compose.MustParse(dsl), compose.Options{ViewChangeTimeout: 300 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			c, err := deploy.New(deploy.Config{
				F:                   1,
				NewApp:              newCounter,
				Composition:         comp,
				Delta:               delta,
				Network:             transport.Options{Delay: slowHead},
				InstrumentHistories: true,
				Checker:             checker,
				TickInterval:        10 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Stop)
			for i, client := range driveClients(t, c, 4, 10, "s") {
				if client.Switches() == 0 {
					t.Errorf("client %d never switched with a slow head", i)
				}
			}
			if errs := checker.Check(); len(errs) > 0 {
				t.Fatalf("specification violations under %q: %v", dsl, errs)
			}
		})
	}
}
