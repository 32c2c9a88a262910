package bench

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"

	"abstractbft/internal/app"
)

// generator produces one stream's commands from the run seed and checks the
// replies; the program under test sees only the generated commands.
type generator interface {
	// next returns the next command and the check to run on its reply.
	next() (command []byte, check func(reply []byte) error)
}

// nullGen issues the paper's 0/0 microbenchmark: empty commands against the
// null application, whose replies are empty.
type nullGen struct{}

var emptyCommand = []byte{}

func (nullGen) next() ([]byte, func([]byte) error) { return emptyCommand, checkEmptyReply }

func checkEmptyReply(reply []byte) error {
	if len(reply) != 0 {
		return fmt.Errorf("null application replied %d bytes, want 0", len(reply))
	}
	return nil
}

// kvOracle is the benchmark's model of the KV store. Every key has exactly
// one writing stream and puts on it are issued strictly one after another
// with increasing versions, so each key is a single-writer register: a get is
// correct iff the version it returns lies between the last version
// acknowledged before the get was issued and the last version started before
// it returned.
type kvOracle struct {
	keys [kvKeys]string
	// acked is the last acknowledged version per key, started the last
	// version whose put was issued (started is acked or acked+1; it stays
	// ahead when a put fails, because the put may still have been ordered).
	acked, started [kvKeys]atomic.Uint32
}

func newKVOracle() *kvOracle {
	o := &kvOracle{}
	for k := range o.keys {
		o.keys[k] = kvKey(k)
	}
	return o
}

// kvKey names key k.
func kvKey(k int) string { return fmt.Sprintf("key-%04d", k) }

// value is the deterministic kvValueSize-byte value of (key, version):
// "kkkk-vvvvvvvvvv-" padded with 'x'.
func kvValue(k int, version uint32) string {
	b := make([]byte, 0, kvValueSize)
	b = appendPadded(b, uint64(k), 4)
	b = append(b, '-')
	b = appendPadded(b, uint64(version), 10)
	b = append(b, '-')
	for len(b) < kvValueSize {
		b = append(b, 'x')
	}
	return string(b)
}

func appendPadded(b []byte, v uint64, width int) []byte {
	s := strconv.FormatUint(v, 10)
	for i := len(s); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, s...)
}

// versionOf parses a get reply for key k: 0 for "not found", else the stored
// version; an error for anything that is not a value this benchmark wrote to
// that key.
func versionOf(k int, reply []byte) (uint32, error) {
	if len(reply) == 0 {
		return 0, nil
	}
	if len(reply) != kvValueSize {
		return 0, fmt.Errorf("get key-%04d returned %d bytes, want %d", k, len(reply), kvValueSize)
	}
	key, err := strconv.Atoi(string(reply[0:4]))
	if err != nil || key != k || reply[4] != '-' || reply[15] != '-' {
		return 0, fmt.Errorf("get key-%04d returned a value of another key: %q", k, reply)
	}
	v, err := strconv.ParseUint(string(reply[5:15]), 10, 32)
	if err != nil {
		return 0, fmt.Errorf("get key-%04d returned a malformed version: %q", k, reply)
	}
	return uint32(v), nil
}

// checkGet validates a get reply against the versions acknowledged before
// the get was issued (lo) and started before it returned.
func (o *kvOracle) checkGet(k int, lo uint32, reply []byte) error {
	v, err := versionOf(k, reply)
	if err != nil {
		return err
	}
	if hi := o.started[k].Load(); v < lo || v > hi {
		return fmt.Errorf("get key-%04d returned version %d, acknowledged or in flight were %d..%d", k, v, lo, hi)
	}
	return nil
}

// kvGen is one stream's seeded KV command source: uniform keys, one get in
// kvGetOneIn, puts only on the keys the stream owns (k mod streams == index).
type kvGen struct {
	o       *kvOracle
	rng     *rand.Rand
	index   int
	streams int
}

func (g *kvGen) next() ([]byte, func([]byte) error) {
	o := g.o
	if g.rng.Intn(kvGetOneIn) == 0 {
		k := g.rng.Intn(kvKeys)
		lo := o.acked[k].Load()
		return app.EncodeKVGet(o.keys[k]), func(reply []byte) error { return o.checkGet(k, lo, reply) }
	}
	k := g.index + g.streams*g.rng.Intn(kvKeys/g.streams)
	version := o.started[k].Load() + 1
	o.started[k].Store(version)
	return app.EncodeKVPut(o.keys[k], kvValue(k, version)), func(reply []byte) error {
		if string(reply) != "OK" {
			return fmt.Errorf("put %s replied %q, want OK", o.keys[k], reply)
		}
		o.acked[k].Store(version)
		return nil
	}
}

// readBack returns, for every key that was ever written, a get command and
// the check that its reply is the last acknowledged put (or a later put that
// failed at the client but was ordered anyway).
func (o *kvOracle) readBack() (commands [][]byte, checks []func([]byte) error) {
	for k := range o.keys {
		k := k
		lo := o.acked[k].Load()
		if o.started[k].Load() == 0 {
			continue
		}
		commands = append(commands, app.EncodeKVGet(o.keys[k]))
		checks = append(checks, func(reply []byte) error { return o.checkGet(k, lo, reply) })
	}
	return commands, checks
}
