package transport_test

import (
	"reflect"
	"testing"
	"time"

	"abstractbft/internal/core"
	"abstractbft/internal/ids"
	"abstractbft/internal/transport"
)

// marker is a small real wire payload told apart by its counter.
func marker(n uint64) *core.CheckpointMessage {
	return &core.CheckpointMessage{From: ids.Replica(1), AbstractID: 1, Counter: n}
}

func TestTCPTransport(t *testing.T) {
	if _, err := transport.NewTCPCodec(ids.Replica(0), map[ids.ProcessID]string{ids.Replica(0): "127.0.0.1:0"}, nil, nil); err == nil {
		t.Fatal("NewTCPCodec accepted a nil codec")
	}
	a, b := newTCPPair(t)
	b.Send(ids.Replica(0), marker(1))
	select {
	case env := <-a.Inbox():
		if env.From != ids.Replica(1) || !reflect.DeepEqual(env.Payload, marker(1)) {
			t.Fatalf("unexpected envelope %+v", env)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("TCP message not delivered")
	}
}

func TestTCPSendBatchUnpacks(t *testing.T) {
	a, b := newTCPPair(t)
	// A burst of individual sends exercises the write-coalescing path, and a
	// SendBatch exercises receive-side unpacking.
	b.Send(ids.Replica(0), marker(1))
	b.Send(ids.Replica(0), marker(2))
	transport.SendBatch(b, ids.Replica(0), []any{marker(3), marker(4)})
	got := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		select {
		case env := <-a.Inbox():
			m, ok := env.Payload.(*core.CheckpointMessage)
			if !ok {
				t.Fatalf("unexpected payload %T", env.Payload)
			}
			got[m.Counter] = true
		case <-time.After(2 * time.Second):
			t.Fatalf("message %d not delivered; got %v", i, got)
		}
	}
	for want := uint64(1); want <= 4; want++ {
		if !got[want] {
			t.Fatalf("missing marker %d after unpacking, got %v", want, got)
		}
	}
}
