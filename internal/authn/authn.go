// Package authn provides the cryptographic substrate used by all protocols in
// this repository: message digests, pairwise MACs, MAC authenticators
// (vectors of MACs, one per recipient), the Chain Authenticators introduced by
// the Chain protocol, and digital signatures.
//
// Keys are derived deterministically from a cluster-wide secret and the pair
// of process identifiers, mirroring the usual BFT deployment assumption that
// every pair of processes shares a symmetric key established out of band.
// Signing keys are Ed25519 key pairs derived from the same secret; the public
// keys of all processes are known to everyone.
package authn

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sync"
	"sync/atomic"

	"abstractbft/internal/ids"
	"abstractbft/internal/obs"
)

// DigestSize is the size in bytes of message digests.
const DigestSize = sha256.Size

// MACSize is the size in bytes of a message authentication code.
const MACSize = 32

// Digest is a collision-resistant hash of a message.
type Digest [DigestSize]byte

// Hash computes the digest of data.
func Hash(data []byte) Digest { return sha256.Sum256(data) }

// HashAll computes the digest of the concatenation of the given byte slices,
// with length prefixes so that the encoding is unambiguous.
//
//abstractbft:noalloc
func HashAll(parts ...[]byte) Digest { return hashParts(true, parts) }

// HashConcat computes Hash of the plain concatenation of the given byte
// slices without materializing it: encoders whose digest input is a fixed
// header followed by a caller-owned payload hash the two in place.
//
//abstractbft:noalloc
func HashConcat(parts ...[]byte) Digest { return hashParts(false, parts) }

// hashInline bounds the inputs hashParts assembles on the stack and hashes in
// one shot; it covers every fixed-size digest input of the request hot path
// (history chain steps, batch folds of up to three digests, small requests).
const hashInline = 256

// hashParts hashes the concatenation of parts, each preceded by its 8-byte
// big-endian length when prefixed is set. The streaming branch feeds the hash
// through a local chunk so that parts never reaches an interface call: the
// callers' arrays stay on their stacks and the common (inline) branch does not
// allocate at all.
//
//abstractbft:noalloc
func hashParts(prefixed bool, parts [][]byte) Digest {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if prefixed {
		total += 8 * len(parts)
	}
	if total <= hashInline {
		var buf [hashInline]byte
		b := buf[:0]
		for _, p := range parts {
			if prefixed {
				b = binary.BigEndian.AppendUint64(b, uint64(len(p)))
			}
			b = append(b, p...)
		}
		return sha256.Sum256(b)
	}
	h := sha256.New()
	var chunk [1024]byte
	for _, p := range parts {
		if prefixed {
			binary.BigEndian.PutUint64(chunk[:8], uint64(len(p)))
			h.Write(chunk[:8])
		}
		for len(p) > 0 {
			n := copy(chunk[:], p)
			h.Write(chunk[:n])
			p = p[n:]
		}
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// String renders a short hexadecimal prefix of the digest.
func (d Digest) String() string { return fmt.Sprintf("%x", d[:6]) }

// IsZero reports whether the digest is the zero value.
func (d Digest) IsZero() bool { return d == Digest{} }

// MAC is a message authentication code computed under a pairwise key.
type MAC [MACSize]byte

// Errors returned by verification routines.
var (
	ErrBadMAC       = errors.New("authn: MAC verification failed")
	ErrBadSignature = errors.New("authn: signature verification failed")
	ErrNoEntry      = errors.New("authn: authenticator has no entry for receiver")
)

// KeyStore derives and caches the symmetric pairwise keys and the Ed25519
// signing keys of every process. A single KeyStore models the collection of
// keys held by all processes; per-process views are not enforced because the
// repository's Byzantine behaviours are modelled explicitly by the attack
// package rather than by key compromise.
type KeyStore struct {
	secret []byte

	// macKeys is the lock-free table of per-pair MAC midstates every MAC
	// call reads; mu serializes only its writers (a pair's first use) and
	// guards the signing-key maps.
	macKeys atomic.Pointer[macTable]

	mu      sync.RWMutex
	signKey map[ids.ProcessID]ed25519.PrivateKey
	pubKey  map[ids.ProcessID]ed25519.PublicKey

	// met counts MAC operations when set (SetMetrics); atomic because MAC
	// callers hold no lock.
	met atomic.Pointer[keyMetrics]
}

// keyMetrics holds the authn series: total MAC computations (MAC, VerifyMAC,
// authenticators, and chain MACs all funnel through macWith).
type keyMetrics struct {
	macOps *obs.Counter // authn_mac_ops_total
}

// SetMetrics instruments the key store's MAC fast path against r. Safe to
// call at any time; metric recording is one atomic pointer load per MAC.
func (ks *KeyStore) SetMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	ks.met.Store(&keyMetrics{macOps: r.Counter("authn_mac_ops_total")})
}

type pairKeyID struct {
	a, b ids.ProcessID
}

// NewKeyStore creates a key store from a cluster-wide secret. Two key stores
// created from the same secret derive identical keys, which allows separate
// processes (or test harness components) to agree on keys without exchanging
// them.
func NewKeyStore(secret string) *KeyStore {
	ks := &KeyStore{
		secret:  []byte(secret),
		signKey: make(map[ids.ProcessID]ed25519.PrivateKey),
		pubKey:  make(map[ids.ProcessID]ed25519.PublicKey),
	}
	ks.macKeys.Store(newMACTable(minMACTable))
	return ks
}

func normalizePair(p, q ids.ProcessID) pairKeyID {
	if p > q {
		p, q = q, p
	}
	return pairKeyID{a: p, b: q}
}

// macKey is the immutable HMAC-SHA256 midstate of one process pair: the
// marshaled SHA-256 states after absorbing the pairwise key's inner and outer
// pad blocks. hmac.New hashes those two blocks on every call; restoring the
// midstates leaves a MAC one short SHA-256 pass over the message and one over
// the inner sum, and — being read-only — lets every goroutine share one entry
// per pair without a lock or a per-pair pool.
type macKey struct {
	id           pairKeyID
	inner, outer []byte
}

// deriveMACKey derives the symmetric key shared by the pair from the cluster
// secret and absorbs it into the two HMAC pad blocks.
func (ks *KeyStore) deriveMACKey(id pairKeyID) *macKey {
	kdf := hmac.New(sha256.New, ks.secret)
	var pair [8]byte
	binary.BigEndian.PutUint32(pair[:4], uint32(id.a))
	binary.BigEndian.PutUint32(pair[4:], uint32(id.b))
	kdf.Write([]byte("pairwise"))
	kdf.Write(pair[:])
	key := kdf.Sum(nil)

	midstate := func(pad byte) []byte {
		var block [sha256.BlockSize]byte
		copy(block[:], key) // a 32-byte key is zero-padded to the block, not hashed
		for i := range block {
			block[i] ^= pad
		}
		h := sha256.New()
		h.Write(block[:])
		state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			panic("authn: sha256 state does not marshal: " + err.Error())
		}
		return state
	}
	return &macKey{id: id, inner: midstate(0x36), outer: midstate(0x5c)}
}

// macTable is an open-addressed, insert-only hash table of MAC midstates.
// Readers probe it without synchronization: a slot goes from nil to its final
// entry exactly once, and a table that has filled up is never rehashed in
// place but copied into one twice the size and republished (copy-on-write),
// so a reader holding either table sees every entry inserted before it
// loaded the pointer and at worst misses a concurrent insert — which sends
// it to the writer path, where it finds the entry under the lock.
type macTable struct {
	slots []atomic.Pointer[macKey] // power-of-two length, at most half full
	used  int                      // written under KeyStore.mu only
}

// minMACTable is the initial slot count: room for a 4-replica cluster and a
// dozen clients before the first growth.
const minMACTable = 128

func newMACTable(slots int) *macTable {
	return &macTable{slots: make([]atomic.Pointer[macKey], slots)}
}

// slot returns where id lives, or the empty slot that ends its probe
// sequence. Process identifiers are small integers (replicas) or ClientBase
// plus small integers, so a multiplicative mix spreads them.
//
//abstractbft:noalloc
func (t *macTable) slot(id pairKeyID) (*atomic.Pointer[macKey], *macKey) {
	mask := uint64(len(t.slots) - 1)
	h := (uint64(uint32(id.a))<<32 | uint64(uint32(id.b))) * 0x9e3779b97f4a7c15
	for i := h >> 32 & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		k := s.Load()
		if k == nil || k.id == id {
			return s, k
		}
	}
}

// macKeyFor returns the pair's MAC midstate, deriving and publishing it on
// first use (lazily per pair, so setting up a cluster costs nothing here).
//
//abstractbft:noalloc
func (ks *KeyStore) macKeyFor(p, q ids.ProcessID) *macKey {
	id := normalizePair(p, q)
	if _, k := ks.macKeys.Load().slot(id); k != nil {
		return k
	}
	return ks.addMACKey(id)
}

func (ks *KeyStore) addMACKey(id pairKeyID) *macKey {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	t := ks.macKeys.Load()
	s, k := t.slot(id)
	if k != nil {
		return k // another goroutine's first use won the race
	}
	k = ks.deriveMACKey(id)
	if 2*(t.used+1) > len(t.slots) {
		grown := newMACTable(2 * len(t.slots))
		for i := range t.slots {
			if old := t.slots[i].Load(); old != nil {
				gs, _ := grown.slot(old.id)
				gs.Store(old)
			}
		}
		grown.used = t.used
		t = grown
		s, _ = t.slot(id)
	}
	s.Store(k)
	t.used++
	// A grown table is published complete, the new entry included; storing
	// the unchanged pointer otherwise is harmless.
	ks.macKeys.Store(t)
	return k
}

// macScratch is the per-call working state of a MAC: a SHA-256 hasher the
// pair's midstates are restored into, and the buffer every MAC is assembled
// in and summed into. The hash is reached through an interface, so anything
// handed to it is assumed to escape; feeding it only the pooled buffer keeps
// the callers' (stack-built, fixed-size) MAC inputs and the resulting MAC off
// the heap. One pool serves every pair: the scratch holds no key material
// between calls that the next restore does not overwrite.
type macScratch struct {
	h       hash.Hash
	restore encoding.BinaryUnmarshaler // h's state loader
	buf     [macScratchSize]byte
}

// macScratchSize holds the 9-byte MAC header plus every fixed-size MAC input
// of the request path (the largest, a chain tail input, is 112 bytes).
const macScratchSize = 128

var macScratchPool = sync.Pool{New: func() any {
	h := sha256.New()
	return &macScratch{h: h, restore: h.(encoding.BinaryUnmarshaler)}
}}

// MAC input domains: raw MACs cover the caller's bytes directly; digest MACs
// (authenticators, chain authenticators) cover a precomputed message digest so
// the message is hashed once per send instead of once per receiver. The domain
// byte sits inside the MAC input, so the two kinds can never be confused even
// for adversarially chosen raw data.
const (
	macDomainRaw    = 0x00
	macDomainDigest = 0x01
)

// macWith computes HMAC-SHA256 under the pair's key over the 9-byte header
// (sender, receiver, domain) followed by data.
//
//abstractbft:noalloc
func (ks *KeyStore) macWith(sender, receiver ids.ProcessID, domain byte, data []byte) MAC {
	if m := ks.met.Load(); m != nil {
		m.macOps.Inc()
	}
	key := ks.macKeyFor(sender, receiver)
	st := macScratchPool.Get().(*macScratch)
	mustRestore(st.restore, key.inner)
	buf := st.buf[:]
	binary.BigEndian.PutUint32(buf[:4], uint32(sender))
	binary.BigEndian.PutUint32(buf[4:8], uint32(receiver))
	buf[8] = domain
	n := 9
	for {
		k := copy(buf[n:], data)
		st.h.Write(buf[:n+k])
		if data = data[k:]; len(data) == 0 {
			break
		}
		n = 0
	}
	sum := st.h.Sum(buf[:0])
	mustRestore(st.restore, key.outer)
	st.h.Write(sum)
	var m MAC
	copy(m[:], st.h.Sum(buf[:0]))
	macScratchPool.Put(st)
	return m
}

// mustRestore loads a midstate this package marshaled itself; a failure can
// only be a bug (or a runtime whose SHA-256 state no longer round-trips).
func mustRestore(u encoding.BinaryUnmarshaler, state []byte) {
	if err := u.UnmarshalBinary(state); err != nil {
		panic("authn: sha256 midstate does not restore: " + err.Error())
	}
}

// MAC computes the MAC of data under the key shared by sender and receiver.
func (ks *KeyStore) MAC(sender, receiver ids.ProcessID, data []byte) MAC {
	return ks.macWith(sender, receiver, macDomainRaw, data)
}

// macOverDigest computes the digest-domain MAC over a message digest.
func (ks *KeyStore) macOverDigest(sender, receiver ids.ProcessID, d Digest) MAC {
	return ks.macWith(sender, receiver, macDomainDigest, d[:])
}

// VerifyMAC checks that m authenticates data between sender and receiver.
func (ks *KeyStore) VerifyMAC(sender, receiver ids.ProcessID, data []byte, m MAC) error {
	want := ks.MAC(sender, receiver, data)
	if !hmac.Equal(want[:], m[:]) {
		return ErrBadMAC
	}
	return nil
}

// signingKey returns (lazily deriving) the Ed25519 private key of process p.
func (ks *KeyStore) signingKey(p ids.ProcessID) ed25519.PrivateKey {
	ks.mu.RLock()
	k, ok := ks.signKey[p]
	ks.mu.RUnlock()
	if ok {
		return k
	}
	seedMAC := hmac.New(sha256.New, ks.secret)
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], uint32(p))
	seedMAC.Write([]byte("sign"))
	seedMAC.Write(buf[:])
	seed := seedMAC.Sum(nil)[:ed25519.SeedSize]
	priv := ed25519.NewKeyFromSeed(seed)
	ks.mu.Lock()
	ks.signKey[p] = priv
	ks.pubKey[p] = priv.Public().(ed25519.PublicKey)
	ks.mu.Unlock()
	return priv
}

// PublicKey returns the Ed25519 public key of process p.
func (ks *KeyStore) PublicKey(p ids.ProcessID) ed25519.PublicKey {
	ks.signingKey(p)
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	return ks.pubKey[p]
}

// Signature is a digital signature over a message digest.
type Signature []byte

// Sign produces process p's signature over data.
func (ks *KeyStore) Sign(p ids.ProcessID, data []byte) Signature {
	d := Hash(data)
	return ed25519.Sign(ks.signingKey(p), d[:])
}

// VerifySignature checks process p's signature over data.
func (ks *KeyStore) VerifySignature(p ids.ProcessID, data []byte, sig Signature) error {
	d := Hash(data)
	if !ed25519.Verify(ks.PublicKey(p), d[:], sig) {
		return ErrBadSignature
	}
	return nil
}

// AuthEntry is a single MAC entry of an authenticator, addressed to Receiver.
type AuthEntry struct {
	Receiver ids.ProcessID
	MAC      MAC
}

// Authenticator is a vector of MACs generated by Sender, one entry per
// receiver, authenticating the same message for multiple recipients
// (Castro & Liskov's MAC authenticators).
type Authenticator struct {
	Sender  ids.ProcessID
	Entries []AuthEntry
}

// NewAuthenticator computes an authenticator from sender to the given
// receivers over data. The message is hashed once and each entry MACs the
// digest, so generating a vector of n MACs costs O(|data| + n·DigestSize)
// instead of O(n·|data|). An entry addressed to the sender itself carries a
// zero MAC that Verify short-circuits: a process never needs cryptographic
// evidence about its own messages. Sender is chosen by whoever built the
// authenticator, so a forger can name the receiver itself and pass Verify
// with no MAC at all: a receiver must first bind Sender to the process the
// message claims to come from (host.Host.VerifyClientAuth does this for client
// requests: Sender must be the request's client).
func (ks *KeyStore) NewAuthenticator(sender ids.ProcessID, receivers []ids.ProcessID, data []byte) Authenticator {
	d := Hash(data)
	a := Authenticator{Sender: sender, Entries: make([]AuthEntry, 0, len(receivers))}
	for _, r := range receivers {
		if r == sender {
			a.Entries = append(a.Entries, AuthEntry{Receiver: r})
			continue
		}
		a.Entries = append(a.Entries, AuthEntry{Receiver: r, MAC: ks.macOverDigest(sender, r, d)})
	}
	return a
}

// Entry returns the MAC entry addressed to receiver, if present.
func (a Authenticator) Entry(receiver ids.ProcessID) (MAC, bool) {
	for _, e := range a.Entries {
		if e.Receiver == receiver {
			return e.MAC, true
		}
	}
	return MAC{}, false
}

// Verify checks the authenticator entry addressed to receiver against data.
// A receiver that is also the sender accepts its own (zero) entry without
// cryptographic work, so the caller must have bound a.Sender to the claimed
// originator first; see NewAuthenticator.
func (ks *KeyStore) Verify(a Authenticator, receiver ids.ProcessID, data []byte) error {
	m, ok := a.Entry(receiver)
	if !ok {
		return ErrNoEntry
	}
	if receiver == a.Sender {
		return nil
	}
	want := ks.macOverDigest(a.Sender, receiver, Hash(data))
	if !hmac.Equal(want[:], m[:]) {
		return ErrBadMAC
	}
	return nil
}

// ChainAuthenticator is the lightweight authenticator used by the Chain
// protocol (§5.3): the generating process produces at most f+1 MACs, one per
// member of its successor set, and forwards along the chain any MACs it
// received that are destined to processes in its own successor set.
type ChainAuthenticator struct {
	// Entries holds, per (signer, receiver) pair, the MAC the signer
	// generated for the receiver.
	Entries []ChainAuthEntry
}

// ChainAuthEntry is one MAC of a chain authenticator.
type ChainAuthEntry struct {
	Signer   ids.ProcessID
	Receiver ids.ProcessID
	MAC      MAC
}

// AppendChainMACs appends sender's MACs for each receiver in successors over
// data to the chain authenticator and returns the updated value. As with MAC
// authenticators, the data is hashed once and each entry MACs the digest.
func (ks *KeyStore) AppendChainMACs(ca ChainAuthenticator, sender ids.ProcessID, successors []ids.ProcessID, data []byte) ChainAuthenticator {
	d := Hash(data)
	for _, r := range successors {
		ca.Entries = append(ca.Entries, ChainAuthEntry{Signer: sender, Receiver: r, MAC: ks.macOverDigest(sender, r, d)})
	}
	return ca
}

// VerifyChain checks that the chain authenticator contains, for the given
// receiver, a valid MAC from every process in predecessors over data. The
// data is hashed once and each predecessor's entry is checked against the
// digest-domain MAC.
func (ks *KeyStore) VerifyChain(ca ChainAuthenticator, receiver ids.ProcessID, predecessors []ids.ProcessID, data []byte) error {
	d := Hash(data)
	for _, p := range predecessors {
		found := false
		for _, e := range ca.Entries {
			if e.Signer == p && e.Receiver == receiver {
				want := ks.macOverDigest(p, receiver, d)
				if !hmac.Equal(want[:], e.MAC[:]) {
					return fmt.Errorf("authn: chain authenticator entry from %v: %w", p, ErrBadMAC)
				}
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("authn: chain authenticator missing MAC from %v for %v: %w", p, receiver, ErrNoEntry)
		}
	}
	return nil
}

// PruneChain removes entries that are not destined to any process in keep,
// modelling the forwarding rule of Chain in which a replica only propagates
// the MACs useful to its successors.
func PruneChain(ca ChainAuthenticator, keep []ids.ProcessID) ChainAuthenticator {
	out := ChainAuthenticator{}
	for _, e := range ca.Entries {
		for _, k := range keep {
			if e.Receiver == k {
				out.Entries = append(out.Entries, e)
				break
			}
		}
	}
	return out
}
