package core

import (
	"context"
	"fmt"
	"testing"

	"abstractbft/internal/authn"
	"abstractbft/internal/history"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/transport"
)

func testRequest(client, ts int) msg.Request {
	return msg.Request{Client: ids.Client(client), Timestamp: uint64(ts), Command: []byte(fmt.Sprintf("%d/%d", client, ts))}
}

// digestsOf returns the digest history of the given requests.
func digestsOf(reqs ...msg.Request) history.DigestHistory {
	out := make(history.DigestHistory, len(reqs))
	for i, r := range reqs {
		out[i] = r.Digest()
	}
	return out
}

// signedAbortsFor builds a consistent set of signed abort messages from the
// first `count` replicas for the given digests.
func signedAbortsFor(ks *authn.KeyStore, cluster ids.Cluster, from InstanceID, digests history.DigestHistory, count int) []SignedAbort {
	var out []SignedAbort
	for i := 0; i < count; i++ {
		abort := AbortMessage{
			Instance: from,
			Replica:  ids.Replica(i),
			Next:     from + 1,
			Report:   history.ReplicaReport{Suffix: digests.Clone()},
		}
		sig := ks.Sign(ids.Replica(i), abort.SignedBytes())
		out = append(out, SignedAbort{Abort: abort, Sig: sig})
	}
	return out
}

func TestBuildAndVerifyInitHistory(t *testing.T) {
	ks := authn.NewKeyStore("core-test")
	cluster := ids.NewCluster(1)
	reqs := []msg.Request{testRequest(0, 1), testRequest(0, 2), testRequest(1, 1)}
	digests := digestsOf(reqs...)
	signed := signedAbortsFor(ks, cluster, 1, digests, 3)

	ih, err := BuildInitHistory(cluster, 1, signed, reqs)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if ih.For != 2 || ih.From != 1 {
		t.Fatalf("init history instances wrong: %+v", ih)
	}
	if len(ih.Extract.Suffix) != 3 {
		t.Fatalf("extracted %d entries, want 3", len(ih.Extract.Suffix))
	}
	if len(ih.Requests) != 3 {
		t.Fatalf("attached %d request bodies, want 3", len(ih.Requests))
	}
	if err := VerifyInitHistory(ks, cluster, 2, &ih); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := VerifyInitHistory(ks, cluster, 3, &ih); err == nil {
		t.Fatalf("init history verified for the wrong instance")
	}
}

func TestVerifyInitHistoryRejectsForgery(t *testing.T) {
	ks := authn.NewKeyStore("core-test")
	cluster := ids.NewCluster(1)
	digests := digestsOf(testRequest(0, 1))
	signed := signedAbortsFor(ks, cluster, 1, digests, 3)
	ih, err := BuildInitHistory(cluster, 1, signed, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Tamper with the claimed history: verification must fail because the
	// extraction over the carried proofs no longer matches.
	forged := ih
	forged.Extract.Suffix = digestsOf(testRequest(9, 9))
	if err := VerifyInitHistory(ks, cluster, 2, &forged); err == nil {
		t.Fatalf("forged history suffix accepted")
	}

	// Tamper with a signature.
	badSig := ih
	badSig.Proof = append([]SignedAbort(nil), ih.Proof...)
	badSig.Proof[0].Sig = append([]byte(nil), badSig.Proof[0].Sig...)
	badSig.Proof[0].Sig[0] ^= 0xFF
	if err := VerifyInitHistory(ks, cluster, 2, &badSig); err == nil {
		t.Fatalf("tampered signature accepted")
	}

	// Too few proofs.
	small := ih
	small.Proof = ih.Proof[:2]
	if err := VerifyInitHistory(ks, cluster, 2, &small); err == nil {
		t.Fatalf("proof with fewer than 2f+1 aborts accepted")
	}

	// A Byzantine client cannot attach a request body that is not part of
	// the history.
	extra := ih
	extra.Requests = []msg.Request{testRequest(5, 5)}
	if err := VerifyInitHistory(ks, cluster, 2, &extra); err == nil {
		t.Fatalf("foreign request body accepted")
	}
}

func TestInitHasFlag(t *testing.T) {
	ks := authn.NewKeyStore("core-test")
	cluster := ids.NewCluster(1)
	digests := digestsOf(testRequest(0, 1))
	signed := signedAbortsFor(ks, cluster, 1, digests, 3)
	for i := range signed[:2] {
		signed[i].Abort.Flags = AbortFlagLowLoad
	}
	ih, err := BuildInitHistory(cluster, 1, signed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !InitHasFlag(&ih, cluster, AbortFlagLowLoad) {
		t.Errorf("low-load flag present in f+1 aborts not detected")
	}
	if InitHasFlag(&ih, ids.NewCluster(2), AbortFlagLowLoad) {
		t.Errorf("flag detected with too few supporting aborts for f=2")
	}
}

func TestAbortCollector(t *testing.T) {
	ks := authn.NewKeyStore("core-test")
	cluster := ids.NewCluster(1)
	digests := digestsOf(testRequest(0, 1), testRequest(0, 2))
	signed := signedAbortsFor(ks, cluster, 1, digests, 4)

	c := NewAbortCollector(cluster, ks, 1)
	if c.Ready() {
		t.Fatalf("collector ready without any aborts")
	}
	if !c.Add(signed[0]) || c.Add(signed[0]) {
		t.Fatalf("duplicate abort from the same replica accepted")
	}
	bad := signed[1]
	bad.Sig = append([]byte(nil), bad.Sig...)
	bad.Sig[0] ^= 1
	if c.Add(bad) {
		t.Fatalf("abort with a bad signature accepted")
	}
	c.Add(signed[1])
	if c.Ready() {
		t.Fatalf("collector ready with only 2 aborts (2f+1 = 3 required)")
	}
	c.Add(signed[2])
	if !c.Ready() {
		t.Fatalf("collector not ready with 2f+1 aborts")
	}
	ind, err := c.Build([]msg.Request{testRequest(0, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if ind.Next != 2 || len(ind.Init.Extract.Suffix) != 2 {
		t.Fatalf("abort indication wrong: %+v", ind)
	}
}

// fakeInstance commits or aborts scripted outcomes, for composer tests.
type fakeInstance struct {
	id       InstanceID
	outcomes []Outcome
	calls    int
	gotInit  []*InitHistory
}

func (f *fakeInstance) ID() InstanceID { return f.id }

func (f *fakeInstance) Invoke(ctx context.Context, req msg.Request, init *InitHistory) (Outcome, error) {
	f.gotInit = append(f.gotInit, init)
	if f.calls >= len(f.outcomes) {
		return Outcome{Committed: true, Reply: []byte("late")}, nil
	}
	out := f.outcomes[f.calls]
	f.calls++
	return out, nil
}

func TestComposerSwitchesOnAbort(t *testing.T) {
	abortTo2 := Outcome{Abort: &AbortIndication{Next: 2, Init: InitHistory{From: 1, For: 2}}}
	inst1 := &fakeInstance{id: 1, outcomes: []Outcome{{Committed: true, Reply: []byte("a")}, abortTo2}}
	inst2 := &fakeInstance{id: 2, outcomes: []Outcome{{Committed: true, Reply: []byte("b")}, {Committed: true, Reply: []byte("c")}}}
	factory := func(id InstanceID) (Instance, error) {
		if id == 1 {
			return inst1, nil
		}
		return inst2, nil
	}
	net := transport.NewLocal(transport.Options{})
	defer net.Close()
	cluster := ids.NewCluster(1)
	for _, r := range cluster.Replicas() {
		net.Endpoint(r)
	}
	env := ClientEnv{Cluster: cluster, ID: ids.Client(0), Endpoint: net.Endpoint(ids.Client(0))}
	c, err := NewComposer(env, factory)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if reply, err := c.Invoke(ctx, testRequest(0, 1)); err != nil || string(reply) != "a" {
		t.Fatalf("first invoke: %q %v", reply, err)
	}
	// The second request aborts on instance 1 and must be retried (and
	// committed) on instance 2, without exposing the abort.
	if reply, err := c.Invoke(ctx, testRequest(0, 2)); err != nil || string(reply) != "b" {
		t.Fatalf("second invoke: %q %v", reply, err)
	}
	if c.Switches() != 1 || c.ActiveInstance() != 2 {
		t.Fatalf("composer state wrong: switches=%d active=%d", c.Switches(), c.ActiveInstance())
	}
	// The first invocation of instance 2 must have carried the init history;
	// the next one must not.
	if len(inst2.gotInit) != 1 || inst2.gotInit[0] == nil {
		t.Fatalf("instance 2 did not receive the init history on its first invocation")
	}
	if _, err := c.Invoke(ctx, testRequest(0, 3)); err != nil {
		t.Fatal(err)
	}
	if len(inst2.gotInit) != 2 || inst2.gotInit[1] != nil {
		t.Fatalf("init history sent again on a later invocation")
	}
	// The switch multicast instance 2's init history to every replica, once.
	for _, r := range cluster.Replicas() {
		inbox := net.Endpoint(r).Inbox()
		if len(inbox) != 1 {
			t.Fatalf("replica %v got %d messages, want one InitMessage", r, len(inbox))
		}
		if m, ok := (<-inbox).Payload.(*InitMessage); !ok || m.Instance != 2 || m.Init.For != 2 {
			t.Fatalf("replica %v got %+v, want instance 2's InitMessage", r, m)
		}
	}
}

func TestSpecCheckerDetectsViolations(t *testing.T) {
	good := NewSpecChecker()
	r1, r2 := testRequest(0, 1), testRequest(0, 2)
	good.RecordInvoke(r1)
	good.RecordInvoke(r2)
	h1 := digestsOf(r1)
	h12 := digestsOf(r1, r2)
	good.RecordCommit(1, r1, []byte("x"), h1)
	good.RecordCommit(1, r2, []byte("y"), h12)
	good.RecordAbort(1, r2, history.ExtractResult{Suffix: h12})
	if errs := good.Check(); len(errs) != 0 {
		t.Fatalf("valid trace reported violations: %v", errs)
	}

	// Commit Order violation: two commit histories that are not
	// prefix-related.
	bad := NewSpecChecker()
	bad.RecordInvoke(r1)
	bad.RecordInvoke(r2)
	bad.RecordCommit(1, r1, []byte("x"), digestsOf(r1))
	bad.RecordCommit(1, r2, []byte("y"), digestsOf(r2))
	if errs := bad.Check(); len(errs) == 0 {
		t.Fatalf("commit-order violation not detected")
	}

	// Abort Order violation: commit history not a prefix of an abort history.
	bad2 := NewSpecChecker()
	bad2.RecordInvoke(r1)
	bad2.RecordInvoke(r2)
	bad2.RecordCommit(1, r2, []byte("y"), h12)
	bad2.RecordAbort(1, r1, history.ExtractResult{Suffix: h1})
	if errs := bad2.Check(); len(errs) == 0 {
		t.Fatalf("abort-order violation not detected")
	}

	// Validity violation: a request that was never invoked.
	bad3 := NewSpecChecker()
	bad3.RecordCommit(1, r1, []byte("x"), h1)
	if errs := bad3.Check(); len(errs) == 0 {
		t.Fatalf("validity violation not detected")
	}
}
