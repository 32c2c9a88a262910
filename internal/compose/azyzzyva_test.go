package compose_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"abstractbft/internal/app"
	"abstractbft/internal/compose"
	"abstractbft/internal/core"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
)

func TestAZyzzyvaCommonCase(t *testing.T) {
	checker := core.NewSpecChecker()
	c := deployComposition(t, "azyzzyva", compose.Options{}, newKVStore, checker)
	client, err := c.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for ts := uint64(1); ts <= 30; ts++ {
		key := fmt.Sprintf("k%d", ts)
		req := msg.Request{Client: ids.Client(0), Timestamp: ts, Command: app.EncodeKVPut(key, "v")}
		reply, err := client.Invoke(ctx, req)
		if err != nil {
			t.Fatalf("invoke %d: %v", ts, err)
		}
		if string(reply) != "OK" {
			t.Fatalf("invoke %d: unexpected reply %q", ts, reply)
		}
	}
	if client.Switches() != 0 {
		t.Errorf("common case performed %d switches, want 0", client.Switches())
	}
	if errs := checker.Check(); len(errs) > 0 {
		t.Fatalf("specification violations: %v", errs)
	}
}

// TestAZyzzyvaSwitchesToBackupOnCrash crashes one replica so ZLight can no
// longer gather 3f+1 speculative replies; the composition must switch to
// Backup (PBFT), which commits with only 2f+1 live replicas.
func TestAZyzzyvaSwitchesToBackupOnCrash(t *testing.T) {
	checker := core.NewSpecChecker()
	c := deployComposition(t, "azyzzyva", compose.Options{}, newKVStore, checker)
	client, err := c.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// A few common-case commits first.
	for ts := uint64(1); ts <= 5; ts++ {
		req := msg.Request{Client: ids.Client(0), Timestamp: ts, Command: app.EncodeKVPut(fmt.Sprintf("pre%d", ts), "v")}
		if _, err := client.Invoke(ctx, req); err != nil {
			t.Fatalf("invoke %d: %v", ts, err)
		}
	}

	// Crash one replica. ZLight aborts, Backup takes over.
	c.Host(3).SetCrashed(true)

	for ts := uint64(6); ts <= 15; ts++ {
		req := msg.Request{Client: ids.Client(0), Timestamp: ts, Command: app.EncodeKVPut(fmt.Sprintf("post%d", ts), "v")}
		reply, err := client.Invoke(ctx, req)
		if err != nil {
			t.Fatalf("invoke %d under crash: %v", ts, err)
		}
		if string(reply) != "OK" {
			t.Fatalf("invoke %d: unexpected reply %q", ts, reply)
		}
	}
	if client.Switches() == 0 {
		t.Errorf("expected at least one switch after a replica crash")
	}
	if client.ActiveInstance() < 2 {
		t.Errorf("active instance is %d, expected to have moved past instance 1", client.ActiveInstance())
	}
	if errs := checker.Check(); len(errs) > 0 {
		t.Fatalf("specification violations: %v", errs)
	}

	// The surviving replicas' key-value stores must contain all committed keys.
	deadline := time.Now().Add(3 * time.Second)
	for i := 0; i < 3; i++ {
		h := c.Host(i)
		for time.Now().Before(deadline) {
			kv := h.Application().(*app.KVStore)
			if kv.Get("post15") == "v" {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		kv := h.Application().(*app.KVStore)
		if kv.Get("pre1") != "v" || kv.Get("post15") != "v" {
			t.Errorf("replica %d state incomplete: pre1=%q post15=%q", i, kv.Get("pre1"), kv.Get("post15"))
		}
	}
}

// TestAZyzzyvaRecoversBackToZLight checks that after Backup commits its k
// requests the composition switches onward (Backup -> ZLight -> ...) and
// keeps committing.
func TestAZyzzyvaRecoversBackToZLight(t *testing.T) {
	checker := core.NewSpecChecker()
	c := deployComposition(t, "azyzzyva", compose.Options{}, newKVStore, checker)
	client, err := c.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	// Crash and later recover a replica.
	c.Host(2).SetCrashed(true)
	for ts := uint64(1); ts <= 8; ts++ {
		req := msg.Request{Client: ids.Client(0), Timestamp: ts, Command: app.EncodeKVPut(fmt.Sprintf("a%d", ts), "v")}
		if _, err := client.Invoke(ctx, req); err != nil {
			t.Fatalf("invoke %d: %v", ts, err)
		}
	}
	c.Host(2).SetCrashed(false)
	for ts := uint64(9); ts <= 40; ts++ {
		req := msg.Request{Client: ids.Client(0), Timestamp: ts, Command: app.EncodeKVPut(fmt.Sprintf("b%d", ts), "v")}
		if _, err := client.Invoke(ctx, req); err != nil {
			t.Fatalf("invoke %d: %v", ts, err)
		}
	}
	if got := client.Switches(); got < 2 {
		t.Errorf("expected the composition to keep switching (got %d switches)", got)
	}
	if errs := checker.Check(); len(errs) > 0 {
		t.Fatalf("specification violations: %v", errs)
	}
}
