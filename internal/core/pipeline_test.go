package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/transport"
)

// gatedInstance commits every request at once, except that the invocation of
// timestamp `held` waits for `release`. Every invocation start is reported on
// `started`.
type gatedInstance struct {
	held    uint64
	release chan struct{}
	started chan uint64
}

func (g *gatedInstance) ID() InstanceID { return 1 }

func (g *gatedInstance) Invoke(ctx context.Context, req msg.Request, _ *InitHistory) (Outcome, error) {
	g.started <- req.Timestamp
	if req.Timestamp == g.held {
		select {
		case <-g.release:
		case <-ctx.Done():
			return Outcome{}, ctx.Err()
		}
	}
	return Outcome{Committed: true, Reply: []byte("ok")}, nil
}

// TestPipelinedComposerKeepsInFlightWithinWindow: while the invocation of
// timestamp 1 is stalled, timestamps up to DefaultTimestampWindow proceed,
// but timestamp 1+DefaultTimestampWindow does not reach the instance until
// timestamp 1 completes — replicas could no longer answer timestamp 1's
// retransmissions from their reply caches once it did.
func TestPipelinedComposerKeepsInFlightWithinWindow(t *testing.T) {
	net := transport.NewLocal(transport.Options{})
	defer net.Close()
	inst := &gatedInstance{held: 1, release: make(chan struct{}), started: make(chan uint64, 8)}
	env := ClientEnv{Cluster: ids.NewCluster(1), ID: ids.Client(0), Endpoint: net.Endpoint(ids.Client(0))}
	factory := func(ClientEnv) InstanceFactory {
		return func(InstanceID) (Instance, error) { return inst, nil }
	}
	p, err := NewPipelinedComposer(env, factory, PipelineOptions{Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()
	invoke := func(ts uint64) <-chan error {
		done := make(chan error, 1)
		go func() {
			_, err := p.Invoke(ctx, msg.Request{Client: env.ID, Timestamp: ts})
			done <- err
		}()
		return done
	}
	awaitStart := func(want uint64) {
		t.Helper()
		select {
		case got := <-inst.started:
			if got != want {
				t.Fatalf("instance invoked for timestamp %d, want %d", got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timestamp %d never reached the instance", want)
		}
	}

	stalled := invoke(1)
	awaitStart(1)
	if err := <-invoke(DefaultTimestampWindow); err != nil {
		t.Fatalf("timestamp %d, inside the window: %v", DefaultTimestampWindow, err)
	}
	awaitStart(DefaultTimestampWindow)

	beyond := invoke(1 + DefaultTimestampWindow)
	for deadline := time.Now().Add(10 * time.Second); !p.admissionWaiting(); {
		if time.Now().After(deadline) {
			t.Fatalf("timestamp %d never waited for admission", 1+DefaultTimestampWindow)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case ts := <-inst.started:
		t.Fatalf("timestamp %d reached the instance while timestamp 1 was in flight", ts)
	case err := <-beyond:
		t.Fatalf("timestamp %d returned (%v) while timestamp 1 was in flight", 1+DefaultTimestampWindow, err)
	default:
	}
	// A cancelled invocation waiting for admission gives up without reaching
	// the instance.
	cctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	_, err = p.Invoke(cctx, msg.Request{Client: env.ID, Timestamp: 2 + DefaultTimestampWindow})
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled admission returned %v, want deadline exceeded", err)
	}

	close(inst.release)
	if err := <-stalled; err != nil {
		t.Fatalf("timestamp 1: %v", err)
	}
	awaitStart(1 + DefaultTimestampWindow)
	if err := <-beyond; err != nil {
		t.Fatalf("timestamp %d: %v", 1+DefaultTimestampWindow, err)
	}
}

// admissionWaiting reports whether some invocation waits in admit.
func (p *PipelinedComposer) admissionWaiting() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.retired != nil
}
