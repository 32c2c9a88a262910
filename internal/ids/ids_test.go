package ids

import "testing"

func TestProcessIDKinds(t *testing.T) {
	if !Replica(0).IsReplica() || Replica(3).IsClient() {
		t.Fatalf("replica ids misclassified")
	}
	if !Client(0).IsClient() || Client(5).IsReplica() {
		t.Fatalf("client ids misclassified")
	}
	if Replica(2).String() != "r2" || Client(7).String() != "c7" {
		t.Fatalf("string rendering wrong: %s %s", Replica(2), Client(7))
	}
}

func TestClusterSizes(t *testing.T) {
	for f := 1; f <= 3; f++ {
		c := NewCluster(f)
		if c.N != 3*f+1 || c.Quorum() != 2*f+1 || c.WeakQuorum() != f+1 {
			t.Fatalf("f=%d: cluster sizes wrong: %+v", f, c)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("valid cluster rejected: %v", err)
		}
		if len(c.Replicas()) != c.N {
			t.Fatalf("Replicas() length wrong")
		}
	}
	if err := (Cluster{F: 1, N: 3}).Validate(); err == nil {
		t.Fatalf("undersized cluster accepted")
	}
}

func TestPrimaryRotation(t *testing.T) {
	c := NewCluster(1)
	seen := map[ProcessID]bool{}
	for v := uint64(0); v < 8; v++ {
		seen[c.Primary(v)] = true
	}
	if len(seen) != c.N {
		t.Fatalf("primary rotation does not cover all replicas: %d", len(seen))
	}
}

func TestChainOrder(t *testing.T) {
	c := NewCluster(1) // replicas r0..r3
	if c.Head() != Replica(0) || c.Tail() != Replica(3) {
		t.Fatalf("head/tail wrong")
	}
	succ, ok := c.ChainSuccessor(Replica(1))
	if !ok || succ != Replica(2) {
		t.Fatalf("successor of r1 wrong")
	}
	if _, ok := c.ChainSuccessor(c.Tail()); ok {
		t.Fatalf("tail should have no replica successor")
	}
	pred, ok := c.ChainPredecessor(Replica(2))
	if !ok || pred != Replica(1) {
		t.Fatalf("predecessor of r2 wrong")
	}
	if _, ok := c.ChainPredecessor(c.Head()); ok {
		t.Fatalf("head should have no replica predecessor")
	}

	// Client successor set: first f+1 replicas.
	cs := c.ChainSuccessorSet(Client(0))
	if len(cs) != 2 || cs[0] != Replica(0) || cs[1] != Replica(1) {
		t.Fatalf("client successor set wrong: %v", cs)
	}
	// First 2f replicas: next f+1 replicas.
	s0 := c.ChainSuccessorSet(Replica(0))
	if len(s0) != 2 || s0[0] != Replica(1) || s0[1] != Replica(2) {
		t.Fatalf("successor set of r0 wrong: %v", s0)
	}
	// Later replicas: all subsequent replicas.
	s2 := c.ChainSuccessorSet(Replica(2))
	if len(s2) != 1 || s2[0] != Replica(3) {
		t.Fatalf("successor set of r2 wrong: %v", s2)
	}
	// Predecessor sets are consistent with successor sets.
	for _, p := range c.Replicas() {
		for _, q := range c.ChainPredecessorSet(p) {
			found := false
			for _, s := range c.ChainSuccessorSet(q) {
				if s == p {
					found = true
				}
			}
			if !found {
				t.Fatalf("%v is not in the successor set of its predecessor %v", p, q)
			}
		}
	}
	last := c.LastReplicas()
	if len(last) != 2 || last[0] != Replica(2) || last[1] != Replica(3) {
		t.Fatalf("last f+1 replicas wrong: %v", last)
	}
}
