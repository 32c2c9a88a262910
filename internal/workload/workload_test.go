package workload

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
)

// fakeService is a trivially linearizable in-memory service used to exercise
// the workload drivers without a cluster.
type fakeService struct {
	mu        sync.Mutex
	committed map[msg.RequestID]bool
	delay     time.Duration
}

func (s *fakeService) invoker(i int) (Invoker, ids.ProcessID, error) {
	id := ids.Client(i)
	return InvokerFunc(func(ctx context.Context, req msg.Request) ([]byte, error) {
		if s.delay > 0 {
			select {
			case <-time.After(s.delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.committed == nil {
			s.committed = make(map[msg.RequestID]bool)
		}
		if s.committed[req.ID()] {
			return nil, fmt.Errorf("duplicate request %v", req.ID())
		}
		s.committed[req.ID()] = true
		return []byte("ok"), nil
	}), id, nil
}

func TestRunClosedLoopFixedRequests(t *testing.T) {
	svc := &fakeService{}
	res, err := RunClosedLoop(context.Background(), ClosedLoopConfig{Clients: 3, RequestsPerClient: 10}, svc.invoker)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 30 {
		t.Fatalf("committed %d, want 30", res.Committed)
	}
	if res.Errors != 0 {
		t.Fatalf("errors %d", res.Errors)
	}
	if res.Latency.Count() != 30 {
		t.Fatalf("latency samples %d", res.Latency.Count())
	}
	if res.ThroughputOps() <= 0 {
		t.Fatalf("throughput not positive")
	}
}

func TestRunClosedLoopDuration(t *testing.T) {
	svc := &fakeService{delay: time.Millisecond}
	res, err := RunClosedLoop(context.Background(), ClosedLoopConfig{Clients: 2, Duration: 150 * time.Millisecond}, svc.invoker)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatalf("no requests committed within the duration")
	}
}

// A client whose constructor fails must not leave the clients started before
// it running: RunClosedLoop cancels and awaits them, so none of them is still
// invoking (or writing the result) once the error returns.
func TestRunClosedLoopStopsStartedClientsOnSetupError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	var returned atomic.Bool
	newInvoker := func(i int) (Invoker, ids.ProcessID, error) {
		if i == 1 {
			<-started
			return nil, 0, errors.New("dial failed")
		}
		return InvokerFunc(func(ctx context.Context, req msg.Request) ([]byte, error) {
			defer returned.Store(true)
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}), ids.Client(i), nil
	}
	_, err := RunClosedLoop(ctx, ClosedLoopConfig{Clients: 2, RequestsPerClient: 1}, newInvoker)
	if err == nil {
		t.Fatal("want the constructor's error")
	}
	if !returned.Load() {
		t.Fatal("client 0 was still invoking after RunClosedLoop returned")
	}
}
