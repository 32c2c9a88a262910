// Package app defines the replicated application layer: the state machine
// that every replica executes and whose replies are returned to clients.
//
// Three applications are provided:
//
//   - Null: the microbenchmark application used throughout the paper's
//     evaluation (x/y benchmarks); it ignores the request payload and returns
//     a reply of a configured size.
//   - KVStore: a deterministic key-value store used by the examples and the
//     linearizability tests.
//   - Counter: a minimal counter application used by unit tests.
package app

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"abstractbft/internal/authn"
)

// Application is a deterministic state machine. Execute applies a command
// and returns the application-level reply; Snapshot serializes the full
// application state; Freeze captures the state for a Snapshot taken later
// (used at every checkpoint boundary by the state-transfer plane,
// internal/statesync, which serializes only the boundaries a peer asks for);
// Restore replaces the state from a Snapshot-produced serialization; Clone
// returns an independent copy with the same state (used to inspect a
// replica's state without racing its execution).
//
// Snapshot must be deterministic: two applications that executed the same
// command sequence serialize to identical bytes, so StateDigest values agree
// across replicas.
type Application interface {
	Execute(command []byte) []byte
	Snapshot() []byte
	Freeze() View
	Restore(data []byte) error
	Clone() Application
}

// View is an application's state as of one Freeze. Its Snapshot returns the
// bytes Application.Snapshot would have returned at that moment, whatever the
// application executed or restored since; Freeze itself must cost the same
// however much state there is. A view is read under the synchronization of
// its application. Release says the view will not be read again, so the
// application can drop what it kept for it; releasing twice is harmless.
type View interface {
	Snapshot() []byte
	Release()
}

// frozenCopy is the View of an application small enough to copy.
type frozenCopy struct{ Application }

func (frozenCopy) Release() {}

// StateDigest returns the collision-resistant digest of an application's
// serialized state: the value replicas agree on (f+1 matching digests) before
// a transferred snapshot is accepted.
func StateDigest(a Application) authn.Digest { return authn.Hash(a.Snapshot()) }

// Null is the microbenchmark application: every command returns a fixed-size
// zero-filled reply.
type Null struct {
	// ReplySize is the size in bytes of every reply (the y of an x/y
	// benchmark).
	ReplySize int
	executed  uint64
}

// NewNull returns a Null application producing replies of replySize bytes.
func NewNull(replySize int) *Null { return &Null{ReplySize: replySize} }

// Execute implements Application.
func (n *Null) Execute(command []byte) []byte {
	n.executed++
	return make([]byte, n.ReplySize)
}

// Snapshot implements Application; the state is just the execution count and
// the reply size.
func (n *Null) Snapshot() []byte {
	buf := make([]byte, 16)
	binary.BigEndian.PutUint64(buf[:8], n.executed)
	binary.BigEndian.PutUint64(buf[8:], uint64(n.ReplySize))
	return buf
}

// Restore implements Application.
func (n *Null) Restore(data []byte) error {
	if len(data) != 16 {
		return fmt.Errorf("app: null snapshot must be 16 bytes, have %d", len(data))
	}
	n.executed = binary.BigEndian.Uint64(data[:8])
	n.ReplySize = int(binary.BigEndian.Uint64(data[8:]))
	return nil
}

// Freeze implements Application.
func (n *Null) Freeze() View { return frozenCopy{n.Clone()} }

// Clone implements Application.
func (n *Null) Clone() Application { return &Null{ReplySize: n.ReplySize, executed: n.executed} }

// Executed returns the number of commands executed.
func (n *Null) Executed() uint64 { return n.executed }

// KVStore is a deterministic key-value store. Commands are encoded with
// EncodeKVPut / EncodeKVGet / EncodeKVDelete.
//
// Values are stamped with the generation they were written in, and every
// Freeze ends a generation: a write overwrites in place within a generation
// and keeps the value it replaces across one, for as long as an unreleased
// view can still read it. Freezing therefore costs the same whatever the
// store holds, and a store nobody froze behaves like a plain map.
type KVStore struct {
	// t is replaced wholesale by Restore, so views of the state before it keep
	// reading the table they were frozen on.
	t *kvTable
}

// kvTable is the versioned storage behind a KVStore.
type kvTable struct {
	entries map[string]*kvEntry
	// live counts the keys whose current version is not a tombstone.
	live int
	// gen is the generation stamped on writes; every view was frozen at a
	// lower one.
	gen uint64
	// views holds the generations of the unreleased views, ascending.
	views []uint64
	// dead lists the keys deleted while a view could still read them: their
	// entries stay as tombstones until a Release finds them unread.
	dead []string
}

// kvVersion is one value of a key, or (deleted) its absence, from generation
// gen until the next version's.
type kvVersion struct {
	gen     uint64
	val     string
	deleted bool
}

type kvEntry struct {
	cur kvVersion
	// old holds the replaced versions some view still reads, ascending.
	old []kvVersion
}

// NewKVStore returns an empty key-value store.
func NewKVStore() *KVStore { return &KVStore{t: newKVTable(0)} }

func newKVTable(size int) *kvTable {
	return &kvTable{entries: make(map[string]*kvEntry, size)}
}

// KV command opcodes.
const (
	kvPut byte = iota + 1
	kvGet
	kvDelete
)

// EncodeKVPut encodes a put command.
func EncodeKVPut(key, value string) []byte {
	return encodeKV(kvPut, key, value)
}

// EncodeKVGet encodes a get command.
func EncodeKVGet(key string) []byte { return encodeKV(kvGet, key, "") }

// EncodeKVDelete encodes a delete command.
func EncodeKVDelete(key string) []byte { return encodeKV(kvDelete, key, "") }

func encodeKV(op byte, key, value string) []byte {
	buf := make([]byte, 0, 9+len(key)+len(value))
	buf = append(buf, op)
	buf = appendKVString(buf, key)
	return appendKVString(buf, value)
}

// appendKVString appends s behind its 4-byte big-endian length: the layout of
// command fields and snapshot records alike.
func appendKVString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// decodeKV splits a command into its fields; key and value alias cmd.
func decodeKV(cmd []byte) (op byte, key, value []byte, err error) {
	if len(cmd) < 9 {
		return 0, nil, nil, fmt.Errorf("app: kv command too short (%d bytes)", len(cmd))
	}
	op = cmd[0]
	klen := binary.BigEndian.Uint32(cmd[1:5])
	rest := cmd[5:]
	if uint64(len(rest)) < uint64(klen)+4 {
		return 0, nil, nil, fmt.Errorf("app: kv command truncated key")
	}
	key = rest[:klen]
	rest = rest[klen:]
	vlen := binary.BigEndian.Uint32(rest[:4])
	rest = rest[4:]
	if uint32(len(rest)) < vlen {
		return 0, nil, nil, fmt.Errorf("app: kv command truncated value")
	}
	return op, key, rest[:vlen], nil
}

// KVKey extracts the key of an encoded KV command, so key-partitioned
// deployments (the sharded ordering plane) can route every operation on one
// key — put, get, delete alike — to the same partition. It reports false for
// malformed commands.
func KVKey(cmd []byte) (string, bool) {
	_, key, _, err := decodeKV(cmd)
	if err != nil {
		return "", false
	}
	return string(key), true
}

// Execute implements Application. Replies are "OK" for writes, the value (or
// empty) for reads, and "ERR: ..." for malformed commands.
func (s *KVStore) Execute(command []byte) []byte {
	op, key, value, err := decodeKV(command)
	if err != nil {
		return []byte("ERR: " + err.Error())
	}
	switch op {
	case kvPut:
		s.t.put(key, value)
		return []byte("OK")
	case kvGet:
		return []byte(s.t.get(key))
	case kvDelete:
		s.t.remove(key)
		return []byte("OK")
	default:
		return []byte(fmt.Sprintf("ERR: unknown op %d", op))
	}
}

// get returns the current value of key ("" when absent). Lookups index the
// map by the command's own bytes, so only a new key costs a string.
func (t *kvTable) get(key []byte) string {
	if e := t.entries[string(key)]; e != nil {
		return e.cur.val
	}
	return ""
}

func (t *kvTable) put(key, value []byte) {
	v := kvVersion{gen: t.gen, val: string(value)}
	if e := t.entries[string(key)]; e != nil {
		t.write(e, v)
		return
	}
	t.entries[string(key)] = &kvEntry{cur: v}
	t.live++
}

func (t *kvTable) remove(key []byte) {
	e := t.entries[string(key)]
	if e == nil || e.cur.deleted {
		return
	}
	t.write(e, kvVersion{gen: t.gen, deleted: true})
	if len(e.old) == 0 {
		delete(t.entries, string(key))
	} else {
		t.dead = append(t.dead, string(key))
	}
}

// write makes v the current version of e. The version it replaces is kept
// when a view can read it (some view was frozen at or after it was written)
// and dropped otherwise, which is every write but a generation's first.
func (t *kvTable) write(e *kvEntry, v kvVersion) {
	if e.cur.deleted != v.deleted {
		if v.deleted {
			t.live--
		} else {
			t.live++
		}
	}
	if n := len(t.views); n > 0 && t.views[n-1] >= e.cur.gen {
		e.old = append(e.old, e.cur)
	}
	e.cur = v
	if len(e.old) > 0 {
		t.prune(e)
	}
}

// prune drops the replaced versions of e no view reads any more: a version
// is read by the views frozen from its generation up to the next version's.
func (t *kvTable) prune(e *kvEntry) {
	kept, vi := e.old[:0], 0
	for i, v := range e.old {
		next := e.cur.gen
		if i+1 < len(e.old) {
			next = e.old[i+1].gen
		}
		for vi < len(t.views) && t.views[vi] < v.gen {
			vi++
		}
		if vi < len(t.views) && t.views[vi] < next {
			kept = append(kept, v)
		}
	}
	clear(e.old[len(kept):])
	e.old = kept
}

// at returns the value of the entry's key as of generation gen.
func (e *kvEntry) at(gen uint64) (string, bool) {
	v := e.cur
	for i := len(e.old); v.gen > gen; i-- {
		if i == 0 {
			return "", false
		}
		v = e.old[i-1]
	}
	return v.val, !v.deleted
}

// serialize encodes the table as of generation gen: the sorted key/value
// pairs, each in the KV length-prefixed layout, so equal stores serialize
// identically. One pass sizes the output, so it is allocated once.
func (t *kvTable) serialize(gen uint64) []byte {
	type pair struct{ key, val string }
	pairs := make([]pair, 0, len(t.entries))
	size := 4
	for k, e := range t.entries {
		if v, ok := e.at(gen); ok {
			pairs = append(pairs, pair{k, v})
			size += 8 + len(k) + len(v)
		}
	}
	slices.SortFunc(pairs, func(a, b pair) int { return strings.Compare(a.key, b.key) })
	buf := binary.BigEndian.AppendUint32(make([]byte, 0, size), uint32(len(pairs)))
	for _, p := range pairs {
		buf = appendKVString(appendKVString(buf, p.key), p.val)
	}
	return buf
}

// Snapshot implements Application.
func (s *KVStore) Snapshot() []byte { return s.t.serialize(math.MaxUint64) }

// kvView is a KVStore frozen at the end of one generation.
type kvView struct {
	t   *kvTable
	gen uint64
}

// Freeze implements Application: it ends the current generation, so later
// writes leave what the view reads in place.
func (s *KVStore) Freeze() View {
	t := s.t
	v := kvView{t: t, gen: t.gen}
	t.views = append(t.views, t.gen)
	t.gen++
	return v
}

func (v kvView) Snapshot() []byte { return v.t.serialize(v.gen) }

// Release implements View. Versions only this view read go as their keys are
// next written; the tombstones of deleted keys, which may never be, go here.
func (v kvView) Release() {
	t := v.t
	i, ok := slices.BinarySearch(t.views, v.gen)
	if !ok {
		return
	}
	t.views = slices.Delete(t.views, i, i+1)
	kept := t.dead[:0]
	for _, k := range t.dead {
		e := t.entries[k]
		if e == nil || !e.cur.deleted {
			continue
		}
		if t.prune(e); len(e.old) == 0 {
			delete(t.entries, k)
		} else {
			kept = append(kept, k)
		}
	}
	clear(t.dead[len(kept):])
	t.dead = kept
}

// Restore implements Application.
func (s *KVStore) Restore(data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("app: kv snapshot too short (%d bytes)", len(data))
	}
	n := binary.BigEndian.Uint32(data[:4])
	rest := data[4:]
	if uint64(n)*8 > uint64(len(rest)) {
		return fmt.Errorf("app: kv snapshot truncated")
	}
	out := newKVTable(int(n))
	readString := func() ([]byte, error) {
		if len(rest) < 4 {
			return nil, fmt.Errorf("app: kv snapshot truncated")
		}
		l := binary.BigEndian.Uint32(rest[:4])
		rest = rest[4:]
		if uint32(len(rest)) < l {
			return nil, fmt.Errorf("app: kv snapshot truncated")
		}
		v := rest[:l]
		rest = rest[l:]
		return v, nil
	}
	for i := uint32(0); i < n; i++ {
		k, err := readString()
		if err != nil {
			return err
		}
		v, err := readString()
		if err != nil {
			return err
		}
		out.put(k, v)
	}
	if len(rest) != 0 {
		return fmt.Errorf("app: kv snapshot has %d trailing bytes", len(rest))
	}
	s.t = out
	return nil
}

// Clone implements Application: the copy holds the current values and none
// of the versions kept for this store's views.
func (s *KVStore) Clone() Application {
	c := newKVTable(s.t.live)
	c.live = s.t.live
	for k, e := range s.t.entries {
		if !e.cur.deleted {
			c.entries[k] = &kvEntry{cur: kvVersion{val: e.cur.val}}
		}
	}
	return &KVStore{t: c}
}

// Get returns the current value of key directly (bypassing replication);
// used by tests to inspect replica state.
func (s *KVStore) Get(key string) string { return s.t.get([]byte(key)) }

// Len returns the number of keys stored.
func (s *KVStore) Len() int { return s.t.live }

// Counter is a minimal application: every command increments a counter and
// the reply is the new value, big-endian encoded.
type Counter struct {
	value uint64
}

// NewCounter returns a zeroed counter application.
func NewCounter() *Counter { return &Counter{} }

// Execute implements Application.
func (c *Counter) Execute(command []byte) []byte {
	c.value++
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], c.value)
	return buf[:]
}

// Snapshot implements Application.
func (c *Counter) Snapshot() []byte {
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, c.value)
	return buf
}

// Restore implements Application.
func (c *Counter) Restore(data []byte) error {
	if len(data) != 8 {
		return fmt.Errorf("app: counter snapshot must be 8 bytes, have %d", len(data))
	}
	c.value = binary.BigEndian.Uint64(data)
	return nil
}

// Freeze implements Application.
func (c *Counter) Freeze() View { return frozenCopy{c.Clone()} }

// Clone implements Application.
func (c *Counter) Clone() Application { return &Counter{value: c.value} }

// Value returns the current counter value.
func (c *Counter) Value() uint64 { return c.value }
