package authn

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
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
	if len(a.Entries) != cluster.N {
		t.Fatalf("authenticator has %d entries, want %d", len(a.Entries), cluster.N)
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

// TestAuthenticatorMACsBytesDirectly pins an authenticator entry to the
// HMAC over (header, authenticator domain, data) — no pre-hash — and checks
// that the domain keeps it apart from a raw MAC and a digest MAC of the same
// bytes, so no entry can be replayed as either.
func TestAuthenticatorMACsBytesDirectly(t *testing.T) {
	ks := NewKeyStore("golden")
	data := testPattern(40) // the size of core.ClientAuthBytes
	client := ids.Client(3)
	a := ks.NewAuthenticator(client, ids.NewCluster(1).Replicas(), data)
	for _, e := range a.Entries {
		want := referenceMAC("golden", client, e.Receiver, macDomainAuth, data)
		if e.MAC != want {
			t.Fatalf("entry for %v = %x, want HMAC over header, domain and bytes %x", e.Receiver, e.MAC, want)
		}
		if raw := ks.MAC(client, e.Receiver, data); raw == e.MAC {
			t.Fatalf("entry for %v equals the raw MAC of its bytes", e.Receiver)
		}
		d := Hash(data)
		if dig := ks.macOverDigest(client, e.Receiver, d); dig == e.MAC {
			t.Fatalf("entry for %v equals the digest MAC of its bytes", e.Receiver)
		}
		if ks.Verify(a, e.Receiver, data) != nil {
			t.Fatalf("entry for %v does not verify", e.Receiver)
		}
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

// referenceMAC recomputes a MAC the long way — the pairwise key derived from
// the secret, then crypto/hmac over header and data — as the reference the
// midstate path is checked against for pairs without a pinned golden value.
func referenceMAC(secret string, sender, receiver ids.ProcessID, domain byte, data []byte) MAC {
	id := normalizePair(sender, receiver)
	kdf := hmac.New(sha256.New, []byte(secret))
	var pair [8]byte
	binary.BigEndian.PutUint32(pair[:4], uint32(id.a))
	binary.BigEndian.PutUint32(pair[4:], uint32(id.b))
	kdf.Write([]byte("pairwise"))
	kdf.Write(pair[:])
	h := hmac.New(sha256.New, kdf.Sum(nil))
	var hdr [9]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(sender))
	binary.BigEndian.PutUint32(hdr[4:8], uint32(receiver))
	hdr[8] = domain
	h.Write(hdr[:])
	h.Write(data)
	var m MAC
	h.Sum(m[:0])
	return m
}

// goldenPairMACs are MAC(Replica(g%4), Client(g), testPattern(41)) for g in
// 0..15 under NewKeyStore("golden"), printed by the PR 13 implementation
// (per-pair pooled hmac objects).
var goldenPairMACs = [16]string{
	"cf4d0236539ca169a5810397cbe08161a151221a71d782e269566206c61fa6f1",
	"93e48ea4d343a5df867fc655750d1f32748b74a92011bf5940f5788dac8eadab",
	"09ce1c3d5c7ad1e1a870909e415afd4ff8b14111ae1c29ac9486d807a2b9ad9e",
	"a541bf1c80db121eba94eb75cb97dd83553a8b92ae9277ee3b52a6609232b7d9",
	"11843d383d56eb09eb2373ceb11d704948aaadb7871292b1b4a8eceb690695b9",
	"f4b5fd7647e9edced01f38ca1184cee98c4c49125ff08246e6b58ffb2bddde52",
	"c62f04f1ce4ca00aff1aaf1fbe29bfb471a6bfa2763598645f003c6a1b41c545",
	"a2fdff5bd5a2d5cb5333c5743eecbf0cab614b4baa762fd66c1db219ec403ab7",
	"fca73cfef4be8bd784487f4ee50efae1276313ef4b6206aae0a1254954178be7",
	"4f3a34a282c6f8b45dda3779ca508c92b56f957daf9d88a345d82ec97c1876bc",
	"9d86d185b7749f886b2064356d8dc5ec905c74f3f2bb4f763996d69056b60346",
	"55790da21e900f838fb64f37a6a44a07df5fae5492fcdaff1754bff4fbcda4cf",
	"a23c99976a608e96aa9c589b47beb4e849eeff84fc557519558105bb3cb964c1",
	"b1791a7a694b217ac5170c085fe810a9f2165098319f91e6aeb153c9f92e6605",
	"ce81737358dc0a3de634a2ef15f961e4507e1a78804f41dcd234bb7fefcda8c7",
	"38fc5a8d4d7c5d8ce8932327866601b0ad38883c4453fbb2ac2b0624dff22a04",
}

// TestMACConcurrentFirstUse starts 16 goroutines on a cold key store: every
// round hits one pair all of them share, one of 16 pairs they rotate over,
// and one pair nobody used before (3200 first uses in all, so the midstate
// table grows several times under the readers). Results must be the PR 13
// bytes whichever goroutine derived the pair and whichever table it read.
func TestMACConcurrentFirstUse(t *testing.T) {
	const goroutines, rounds = 16, 200
	const sharedGolden = "1a0be3e36d6c8db2ccff7237d40b60124cadaa65a68bc323af97854c7798a9ae" // TestGoldenHashAndMAC "MAC short"
	var pairGolden [16]MAC
	for g, hx := range goldenPairMACs {
		b, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatal(err)
		}
		copy(pairGolden[g][:], b)
	}
	// The reference itself must reproduce a pinned value before it vouches
	// for the unpinned pairs.
	if got := referenceMAC("golden", ids.Replica(2), ids.Client(2), macDomainRaw, testPattern(41)); got != pairGolden[2] {
		t.Fatalf("referenceMAC = %x, want the golden %x", got, pairGolden[2])
	}

	ks := NewKeyStore("golden")
	data := testPattern(41)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				if m := ks.MAC(ids.Replica(1), ids.Client(7), []byte("short")); hex.EncodeToString(m[:]) != sharedGolden {
					t.Errorf("goroutine %d round %d: shared pair MAC = %x", g, r, m)
					return
				}
				p := (g + r) % len(pairGolden)
				if m := ks.MAC(ids.Replica(p%4), ids.Client(p), data); m != pairGolden[p] {
					t.Errorf("goroutine %d round %d: pair %d MAC = %x, want %x", g, r, p, m, pairGolden[p])
					return
				}
				s, c := ids.Replica(r%4), ids.Client(1000+g*rounds+r)
				d := Hash(data)
				if m, want := ks.macOverDigest(c, s, d), referenceMAC("golden", c, s, macDomainDigest, d[:]); m != want {
					t.Errorf("goroutine %d round %d: cold pair MAC = %x, want %x", g, r, m, want)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if got, want := ks.macKeys.Load().used, 1+len(pairGolden)+goroutines*rounds; got != want {
		t.Errorf("midstate table holds %d pairs, want %d (one per distinct pair)", got, want)
	}
}

var macSink MAC

// BenchmarkMACDigest is one authenticator entry: the digest-domain MAC over
// a message digest (41 bytes under the MAC).
func BenchmarkMACDigest(b *testing.B) {
	ks := NewKeyStore("bench")
	d := Hash([]byte("message"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		macSink = ks.macOverDigest(ids.Client(0), ids.Replica(i&3), d)
	}
}

// BenchmarkMACResp is one RESP MAC: the raw-domain MAC over the 92-byte
// RESP MAC input (101 bytes under the MAC).
func BenchmarkMACResp(b *testing.B) {
	ks := NewKeyStore("bench")
	var data [92]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		macSink = ks.MAC(ids.Replica(i&3), ids.Client(0), data[:])
	}
}
