package app

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestNullApplication(t *testing.T) {
	n := NewNull(16)
	reply := n.Execute([]byte("anything"))
	if len(reply) != 16 {
		t.Fatalf("reply size %d, want 16", len(reply))
	}
	before := n.Snapshot()
	n.Execute(nil)
	if bytes.Equal(n.Snapshot(), before) {
		t.Fatalf("snapshot should change as commands execute")
	}
	clone := n.Clone().(*Null)
	if clone.Executed() != n.Executed() {
		t.Fatalf("clone diverges from the original")
	}
}

func TestKVStore(t *testing.T) {
	kv := NewKVStore()
	if got := kv.Execute(EncodeKVPut("k", "v")); string(got) != "OK" {
		t.Fatalf("put reply %q", got)
	}
	if got := kv.Execute(EncodeKVGet("k")); string(got) != "v" {
		t.Fatalf("get reply %q", got)
	}
	if got := kv.Execute(EncodeKVGet("missing")); len(got) != 0 {
		t.Fatalf("missing key reply %q", got)
	}
	snapshotWithK := kv.Snapshot()
	clone := kv.Clone().(*KVStore)
	if clone.Get("k") != "v" || clone.Len() != 1 {
		t.Fatalf("clone state wrong")
	}
	kv.Execute(EncodeKVDelete("k"))
	if kv.Get("k") != "" || kv.Len() != 0 {
		t.Fatalf("delete did not remove the key")
	}
	if bytes.Equal(kv.Snapshot(), snapshotWithK) {
		t.Fatalf("snapshot should change after delete")
	}
	// Clone must be unaffected by the delete on the original.
	if clone.Get("k") != "v" {
		t.Fatalf("clone shares state with the original")
	}
	if got := kv.Execute([]byte{1, 2}); !bytes.HasPrefix(got, []byte("ERR")) {
		t.Fatalf("malformed command reply %q", got)
	}
}

func TestKVStoreDeterminism(t *testing.T) {
	a, b := NewKVStore(), NewKVStore()
	cmds := [][]byte{
		EncodeKVPut("x", "1"), EncodeKVPut("y", "2"), EncodeKVDelete("x"), EncodeKVPut("z", "3"),
	}
	for _, c := range cmds {
		ra := a.Execute(c)
		rb := b.Execute(c)
		if !bytes.Equal(ra, rb) {
			t.Fatalf("same command produced different replies")
		}
	}
	if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
		t.Fatalf("same command sequence produced different snapshots")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	kv := NewKVStore()
	kv.Execute(EncodeKVPut("a", "1"))
	kv.Execute(EncodeKVPut("b", "2"))
	n := NewNull(32)
	n.Execute(nil)
	n.Execute(nil)
	c := NewCounter()
	c.Execute(nil)
	fresh := []Application{NewKVStore(), NewNull(0), NewCounter()}
	for i, a := range []Application{kv, n, c} {
		if err := fresh[i].Restore(a.Snapshot()); err != nil {
			t.Fatalf("restore %T: %v", a, err)
		}
		if StateDigest(fresh[i]) != StateDigest(a) {
			t.Fatalf("%T: restored state digest diverges", a)
		}
	}
	if got := fresh[0].(*KVStore).Get("b"); got != "2" {
		t.Fatalf("restored kv value %q, want 2", got)
	}
	if got := fresh[1].(*Null).ReplySize; got != 32 {
		t.Fatalf("restored null reply size %d, want 32", got)
	}
	if got := fresh[2].(*Counter).Value(); got != 1 {
		t.Fatalf("restored counter %d, want 1", got)
	}
	for _, a := range fresh {
		if err := a.Restore([]byte{1}); err == nil {
			t.Fatalf("%T: truncated snapshot accepted", a)
		}
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Execute(nil)
	c.Execute(nil)
	if c.Value() != 2 {
		t.Fatalf("counter value %d, want 2", c.Value())
	}
	clone := c.Clone().(*Counter)
	clone.Execute(nil)
	if c.Value() != 2 || clone.Value() != 3 {
		t.Fatalf("clone shares state")
	}
	if bytes.Equal(c.Snapshot(), clone.Snapshot()) {
		t.Fatalf("different states share a snapshot")
	}
}

// TestFrozenViewMatchesEagerSnapshot: a view frozen at some point serializes,
// however much later and whatever the store executed, restored or froze in
// between, to the bytes an eager Snapshot returned at that point; and the
// versions kept for a view go once it is released.
func TestFrozenViewMatchesEagerSnapshot(t *testing.T) {
	type frozen struct {
		view View
		want []byte
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		kv := NewKVStore()
		key := func() string { return fmt.Sprintf("k%02d", rng.Intn(40)) }
		var views []frozen
		mostViews := 0
		check := func(step int) {
			t.Helper()
			for i, f := range views {
				if got := f.view.Snapshot(); !bytes.Equal(got, f.want) {
					t.Fatalf("seed %d step %d: view %d of %d no longer serializes to its eager snapshot", seed, step, i, len(views))
				}
			}
		}
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(100); {
			case op < 55:
				kv.Execute(EncodeKVPut(key(), fmt.Sprintf("v%d", step)))
			case op < 70:
				k := key()
				want := kv.Get(k)
				if got := kv.Execute(EncodeKVGet(k)); string(got) != want {
					t.Fatalf("seed %d step %d: get %q = %q, want %q", seed, step, k, got, want)
				}
			case op < 85:
				kv.Execute(EncodeKVDelete(key()))
			case op < 93:
				views = append(views, frozen{kv.Freeze(), kv.Snapshot()})
			case op < 99:
				if len(views) > 0 { // out of order, as a pinned floor or a rollback evicts
					i := rng.Intn(len(views))
					views[i].view.Release()
					views[i].view.Release()
					views = append(views[:i], views[i+1:]...)
				}
			default:
				// Restore swaps the whole state under the views.
				if err := kv.Restore(kv.Clone().Snapshot()); err != nil {
					t.Fatal(err)
				}
			}
			if step%50 == 0 {
				check(step)
			}
			// Pruning happens as a key is written, so a key holds at most one
			// version per view that was live at its last write, plus one.
			mostViews = max(mostViews, len(kv.t.views))
			for k, e := range kv.t.entries {
				if n := 1 + len(e.old); n > mostViews+1 {
					t.Fatalf("seed %d step %d: key %q holds %d versions, never more than %d views", seed, step, k, n, mostViews)
				}
			}
		}
		check(2000)
		eager := kv.Snapshot()
		for _, f := range views {
			f.view.Release()
		}
		// Every view is gone: nothing is left of the deleted keys, and the
		// next write of a key leaves it with the one version.
		if len(kv.t.views) != 0 || len(kv.t.dead) != 0 || len(kv.t.entries) != kv.Len() {
			t.Fatalf("seed %d: %d views, %d tombstones, %d entries for %d keys after the last release",
				seed, len(kv.t.views), len(kv.t.dead), len(kv.t.entries), kv.Len())
		}
		if !bytes.Equal(kv.Snapshot(), eager) {
			t.Fatalf("seed %d: releasing the views changed the store", seed)
		}
		for k := range kv.t.entries {
			kv.Execute(EncodeKVPut(k, "last"))
		}
		for k, e := range kv.t.entries {
			if len(e.old) != 0 {
				t.Fatalf("seed %d: key %q still holds %d old versions with no view left", seed, k, len(e.old))
			}
		}
	}
}

// BenchmarkKVStore watches what the versioned store costs the request path:
// a put of an existing key (with the views a snapshot store retains live, so
// a generation's first write of a key keeps the old value), a get, and the
// freeze/release pair of a checkpoint boundary over 1024 keys.
func BenchmarkKVStore(b *testing.B) {
	const keys = 1024
	build := func() (*KVStore, [][]byte, [][]byte) {
		kv := NewKVStore()
		puts, gets := make([][]byte, keys), make([][]byte, keys)
		for k := range puts {
			key := fmt.Sprintf("key-%04d", k)
			puts[k] = EncodeKVPut(key, strings.Repeat("v", 48))
			gets[k] = EncodeKVGet(key)
			kv.Execute(puts[k])
		}
		return kv, puts, gets
	}
	b.Run("put", func(b *testing.B) {
		kv, puts, _ := build()
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			kv.Execute(puts[i*7%keys])
		}
	})
	b.Run("put-with-views", func(b *testing.B) {
		kv, puts, _ := build()
		views := []View{kv.Freeze(), kv.Freeze(), kv.Freeze(), kv.Freeze()}
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			if i%128 == 127 {
				views[0].Release()
				views = append(views[1:], kv.Freeze())
			}
			kv.Execute(puts[i*7%keys])
		}
	})
	b.Run("get", func(b *testing.B) {
		kv, _, gets := build()
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			kv.Execute(gets[i*7%keys])
		}
	})
	b.Run("freeze", func(b *testing.B) {
		kv, _, _ := build()
		b.ReportAllocs()
		for b.Loop() {
			kv.Freeze().Release()
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		kv, _, _ := build()
		b.ReportAllocs()
		for b.Loop() {
			kv.Snapshot()
		}
	})
}
