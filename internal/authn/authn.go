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

	mu      sync.RWMutex
	pairKey map[pairKeyID][]byte
	macPool map[pairKeyID]*sync.Pool
	signKey map[ids.ProcessID]ed25519.PrivateKey
	pubKey  map[ids.ProcessID]ed25519.PublicKey

	// met instruments MAC operations and the HMAC-state pool when set
	// (SetMetrics); atomic because MAC callers never hold ks.mu.
	met atomic.Pointer[keyMetrics]
}

// keyMetrics holds the authn series: total MAC computations (MAC, VerifyMAC,
// authenticators, and chain MACs all funnel through macWith) and the
// digest-MAC state pool's effectiveness (gets vs. misses — a miss pays the
// full hmac.New key schedule, a hit only a Reset).
type keyMetrics struct {
	macOps     *obs.Counter // authn_mac_ops_total
	poolGets   *obs.Counter // authn_hmac_pool_gets_total
	poolMisses *obs.Counter // authn_hmac_pool_misses_total
}

// SetMetrics instruments the key store's MAC fast path against r. Safe to
// call at any time; metric recording is one atomic pointer load per MAC.
func (ks *KeyStore) SetMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	ks.met.Store(&keyMetrics{
		macOps:     r.Counter("authn_mac_ops_total"),
		poolGets:   r.Counter("authn_hmac_pool_gets_total"),
		poolMisses: r.Counter("authn_hmac_pool_misses_total"),
	})
}

type pairKeyID struct {
	a, b ids.ProcessID
}

// NewKeyStore creates a key store from a cluster-wide secret. Two key stores
// created from the same secret derive identical keys, which allows separate
// processes (or test harness components) to agree on keys without exchanging
// them.
func NewKeyStore(secret string) *KeyStore {
	return &KeyStore{
		secret:  []byte(secret),
		pairKey: make(map[pairKeyID][]byte),
		macPool: make(map[pairKeyID]*sync.Pool),
		signKey: make(map[ids.ProcessID]ed25519.PrivateKey),
		pubKey:  make(map[ids.ProcessID]ed25519.PublicKey),
	}
}

func normalizePair(p, q ids.ProcessID) pairKeyID {
	if p > q {
		p, q = q, p
	}
	return pairKeyID{a: p, b: q}
}

// pairwiseKey returns the symmetric key shared between processes p and q.
func (ks *KeyStore) pairwiseKey(p, q ids.ProcessID) []byte {
	id := normalizePair(p, q)
	ks.mu.RLock()
	k, ok := ks.pairKey[id]
	ks.mu.RUnlock()
	if ok {
		return k
	}
	mac := hmac.New(sha256.New, ks.secret)
	var buf [8]byte
	binary.BigEndian.PutUint32(buf[:4], uint32(id.a))
	binary.BigEndian.PutUint32(buf[4:], uint32(id.b))
	mac.Write([]byte("pairwise"))
	mac.Write(buf[:])
	k = mac.Sum(nil)
	ks.mu.Lock()
	ks.pairKey[id] = k
	ks.mu.Unlock()
	return k
}

// macState is one pooled HMAC state together with the scratch every MAC is
// assembled in and summed into. The hash is reached through an interface, so
// anything handed to it is assumed to escape; feeding it only the pooled
// scratch keeps the callers' (stack-built, fixed-size) MAC inputs and the
// resulting MAC off the heap.
type macState struct {
	h   hash.Hash
	buf [macScratch]byte
}

// macScratch holds the 9-byte MAC header plus every fixed-size MAC input of
// the request path (the largest, a chain tail input, is 112 bytes).
const macScratch = 128

// hmacState returns a reset HMAC state for the pair (p, q) from a per-pair
// pool, together with the pool to return it to. Pooling matters on the hot
// path: hmac.New hashes the key into the two block-sized pads on every call,
// while Reset restores the precomputed inner state, so a pooled MAC costs one
// short SHA-256 pass instead of three.
func (ks *KeyStore) hmacState(p, q ids.ProcessID) (*macState, *sync.Pool) {
	id := normalizePair(p, q)
	ks.mu.RLock()
	pool := ks.macPool[id]
	ks.mu.RUnlock()
	if pool == nil {
		key := ks.pairwiseKey(p, q)
		ks.mu.Lock()
		if pool = ks.macPool[id]; pool == nil {
			pool = &sync.Pool{New: func() any {
				if m := ks.met.Load(); m != nil {
					m.poolMisses.Inc()
				}
				return &macState{h: hmac.New(sha256.New, key)}
			}}
			ks.macPool[id] = pool
		}
		ks.mu.Unlock()
	}
	if m := ks.met.Load(); m != nil {
		m.poolGets.Inc()
	}
	st := pool.Get().(*macState)
	st.h.Reset()
	return st, pool
}

// MAC input domains: raw MACs cover the caller's bytes directly; digest MACs
// (authenticators, chain authenticators) cover a precomputed message digest so
// the message is hashed once per send instead of once per receiver. The domain
// byte sits inside the MAC input, so the two kinds can never be confused even
// for adversarially chosen raw data.
const (
	macDomainRaw    = 0x00
	macDomainDigest = 0x01
)

//abstractbft:noalloc
func (ks *KeyStore) macWith(sender, receiver ids.ProcessID, domain byte, data []byte) MAC {
	if m := ks.met.Load(); m != nil {
		m.macOps.Inc()
	}
	st, pool := ks.hmacState(sender, receiver)
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
	var m MAC
	copy(m[:], st.h.Sum(buf[:0]))
	pool.Put(st)
	return m
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
// evidence about its own messages, and skipping the self-MAC is safe because
// the worst a forged self-entry can cause is an abort (liveness), never a
// wrong commit.
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
// cryptographic work; see NewAuthenticator.
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

// NumMACs returns the number of MAC entries in the authenticator; used by the
// MAC-operation accounting in benchmarks.
func (a Authenticator) NumMACs() int { return len(a.Entries) }

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
