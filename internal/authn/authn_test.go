package authn

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"

	"abstractbft/internal/ids"
)

func TestMACRoundTrip(t *testing.T) {
	ks := NewKeyStore("secret")
	data := []byte("hello world")
	m := ks.MAC(ids.Replica(0), ids.Client(3), data)
	if err := ks.VerifyMAC(ids.Replica(0), ids.Client(3), data, m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := ks.VerifyMAC(ids.Replica(1), ids.Client(3), data, m); err == nil {
		t.Fatalf("MAC verified with wrong sender")
	}
	if err := ks.VerifyMAC(ids.Replica(0), ids.Client(3), []byte("tampered"), m); err == nil {
		t.Fatalf("MAC verified over tampered data")
	}
}

func TestMACDeterministicAcrossStores(t *testing.T) {
	a := NewKeyStore("shared")
	b := NewKeyStore("shared")
	data := []byte("payload")
	if a.MAC(ids.Replica(1), ids.Replica(2), data) != b.MAC(ids.Replica(1), ids.Replica(2), data) {
		t.Fatalf("key stores with the same secret derive different MACs")
	}
	c := NewKeyStore("other")
	if a.MAC(ids.Replica(1), ids.Replica(2), data) == c.MAC(ids.Replica(1), ids.Replica(2), data) {
		t.Fatalf("key stores with different secrets derive identical MACs")
	}
}

func TestSignatureRoundTrip(t *testing.T) {
	ks := NewKeyStore("secret")
	data := []byte("abort history")
	sig := ks.Sign(ids.Replica(2), data)
	if err := ks.VerifySignature(ids.Replica(2), data, sig); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := ks.VerifySignature(ids.Replica(1), data, sig); err == nil {
		t.Fatalf("signature verified with wrong signer")
	}
	if err := ks.VerifySignature(ids.Replica(2), []byte("other"), sig); err == nil {
		t.Fatalf("signature verified over different data")
	}
}

func TestAuthenticator(t *testing.T) {
	ks := NewKeyStore("secret")
	cluster := ids.NewCluster(1)
	data := []byte("req")
	a := ks.NewAuthenticator(ids.Client(0), cluster.Replicas(), data)
	if a.NumMACs() != cluster.N {
		t.Fatalf("authenticator has %d entries, want %d", a.NumMACs(), cluster.N)
	}
	for _, r := range cluster.Replicas() {
		if err := ks.Verify(a, r, data); err != nil {
			t.Fatalf("entry for %v: %v", r, err)
		}
	}
	if err := ks.Verify(a, ids.Replica(99), data); err == nil {
		t.Fatalf("verification succeeded for a receiver without an entry")
	}
}

func TestChainAuthenticator(t *testing.T) {
	ks := NewKeyStore("secret")
	cluster := ids.NewCluster(1)
	data := []byte("chained")
	client := ids.Client(0)

	ca := ChainAuthenticator{}
	ca = ks.AppendChainMACs(ca, client, cluster.ChainSuccessorSet(client), data)
	// The head (r0) and r1 must be able to verify the client's MAC.
	for _, r := range cluster.ChainSuccessorSet(client) {
		if err := ks.VerifyChain(ca, r, []ids.ProcessID{client}, data); err != nil {
			t.Fatalf("replica %v cannot verify the client MAC: %v", r, err)
		}
	}
	// A replica outside the client's successor set has no entry.
	if err := ks.VerifyChain(ca, ids.Replica(3), []ids.ProcessID{client}, data); err == nil {
		t.Fatalf("replica outside the successor set verified the client MAC")
	}

	// Head appends its own MACs; r1 must verify both client and head.
	ca = ks.AppendChainMACs(ca, ids.Replica(0), cluster.ChainSuccessorSet(ids.Replica(0)), data)
	if err := ks.VerifyChain(ca, ids.Replica(1), []ids.ProcessID{client, ids.Replica(0)}, data); err != nil {
		t.Fatalf("r1 verification: %v", err)
	}

	// Pruning keeps only entries destined to the retained processes.
	pruned := PruneChain(ca, []ids.ProcessID{ids.Replica(2)})
	for _, e := range pruned.Entries {
		if e.Receiver != ids.Replica(2) {
			t.Fatalf("pruned CA retains entry for %v", e.Receiver)
		}
	}
}

func TestChainAuthenticatorMACCount(t *testing.T) {
	// Chain authenticators must require at most f+1 MACs per generating
	// process (the property §5.3 relies on).
	ks := NewKeyStore("secret")
	for f := 1; f <= 3; f++ {
		cluster := ids.NewCluster(f)
		for _, p := range append(cluster.Replicas(), ids.Client(0)) {
			succ := cluster.ChainSuccessorSet(p)
			limit := f + 1
			if p.IsReplica() && int(p) >= 2*f {
				// The last replicas also authenticate towards the client, so
				// their in-protocol MAC count is (replicas after them) + 1.
				limit = cluster.N - int(p)
			}
			ca := ks.AppendChainMACs(ChainAuthenticator{}, p, succ, []byte("x"))
			if len(ca.Entries) > limit {
				t.Errorf("f=%d: process %v generates %d MACs, want at most %d", f, p, len(ca.Entries), limit)
			}
		}
	}
}

func TestHashAllUnambiguous(t *testing.T) {
	// Length prefixes must prevent concatenation ambiguity.
	if HashAll([]byte("ab"), []byte("c")) == HashAll([]byte("a"), []byte("bc")) {
		t.Fatalf("HashAll is ambiguous across part boundaries")
	}
	if HashAll() == HashAll([]byte{}) {
		t.Fatalf("HashAll of zero parts equals HashAll of one empty part")
	}
}

func TestHashProperties(t *testing.T) {
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return Hash(a) == Hash(b)
		}
		return Hash(a) != Hash(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMACQuick(t *testing.T) {
	ks := NewKeyStore("secret")
	f := func(data []byte, sender, receiver uint8) bool {
		s := ids.Replica(int(sender % 4))
		r := ids.Client(int(receiver % 4))
		m := ks.MAC(s, r, data)
		return ks.VerifyMAC(s, r, data, m) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpCounter(t *testing.T) {
	c := NewOpCounter()
	c.CountMACGen(ids.Replica(0), 3)
	c.CountMACVerify(ids.Replica(0), 2)
	c.CountMACGen(ids.Replica(1), 1)
	c.CountMACGen(ids.Client(0), 100) // client ops must not count as bottleneck
	c.CountRequest()
	c.CountRequest()
	if got := c.MACOps(ids.Replica(0)); got != 5 {
		t.Errorf("MACOps(r0) = %d, want 5", got)
	}
	if got := c.Requests(); got != 2 {
		t.Errorf("Requests = %d, want 2", got)
	}
	if got := c.BottleneckMACOpsPerRequest(); got != 2.5 {
		t.Errorf("BottleneckMACOpsPerRequest = %v, want 2.5", got)
	}
	var nilCounter *OpCounter
	nilCounter.CountMACGen(ids.Replica(0), 1) // must not panic
	if nilCounter.BottleneckMACOpsPerRequest() != 0 {
		t.Errorf("nil counter should report 0")
	}
}

func testPattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i % 251)
	}
	return b
}

// TestGoldenHashAndMAC pins HashAll and MAC to the values the streaming
// implementations produced before inputs were assembled in fixed scratch
// (stack for hashes, pooled for MACs), on both sides of the inline bounds.
func TestGoldenHashAndMAC(t *testing.T) {
	want := func(name string, got []byte, hexWant string) {
		t.Helper()
		if h := hex.EncodeToString(got); h != hexWant {
			t.Errorf("%s = %s, want %s", name, h, hexWant)
		}
	}
	small := HashAll([]byte("a"), nil, []byte("bc"))
	want("HashAll small", small[:], "fb9abcb07180be92066c09ce253c0a060e4634fe3accf064b556d89a691c8e5f")
	large := HashAll(testPattern(200), testPattern(100))
	want("HashAll large", large[:], "f1169db1cb80bef4bd5727049bc5604485f2f8846ce0a6b2f153a92957ad6a8b")
	for _, n := range []int{0, 1, hashInline - 1, hashInline, hashInline + 1, 5000} {
		data := testPattern(n)
		if HashConcat(data[:n/3], data[n/3:]) != Hash(data) {
			t.Errorf("HashConcat differs from Hash at %d bytes", n)
		}
	}

	ks := NewKeyStore("golden")
	short := ks.MAC(ids.Replica(1), ids.Client(7), []byte("short"))
	want("MAC short", short[:], "1a0be3e36d6c8db2ccff7237d40b60124cadaa65a68bc323af97854c7798a9ae")
	long := ks.MAC(ids.Replica(1), ids.Client(7), testPattern(300))
	want("MAC long", long[:], "fa5b76ade37ba4722ae14094471fdd3cb8a054d1befddac5e923cd3dacab91d5")
}

// TestMACAllocs pins the MAC path: a fixed-size input built on the caller's
// stack is MACed and verified without heap allocation.
func TestMACAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled HMAC states")
	}
	ks := NewKeyStore("alloc")
	var data [92]byte
	m := ks.MAC(ids.Replica(1), ids.Client(0), data[:])
	if n := testing.AllocsPerRun(200, func() {
		if ks.VerifyMAC(ids.Replica(1), ids.Client(0), data[:], m) != nil {
			t.Fatal("MAC does not verify")
		}
	}); n != 0 {
		t.Fatalf("VerifyMAC allocates %v times per call, want 0", n)
	}
}
