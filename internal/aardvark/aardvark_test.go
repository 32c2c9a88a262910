package aardvark

import (
	"math"
	"testing"
	"time"

	"abstractbft/internal/authn"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/pbft"
)

// TestMonitorObserve drives the primary monitor on a fake clock against a
// real engine: the first judged window sets the expectation to 0.9 × the
// best rate, grace windows are never judged, a slow window is judged only
// while requests are pending, and a view change restarts the grace.
func TestMonitorObserve(t *testing.T) {
	const window = 100 * time.Millisecond
	now := time.Unix(0, 0)
	m := NewMonitor(MonitorConfig{Window: window, GraceWindows: 2, RaiseFactor: 0})
	m.now = func() time.Time { return now }

	// Replicas 1–3 of an f=1 cluster exchange only their view changes;
	// replica 0, the view-0 primary, is silent, so requests stay pending.
	cluster := ids.NewCluster(1)
	keys := authn.NewKeyStore("aardvark-test")
	type envelope struct {
		from, to ids.ProcessID
		vc       *pbft.ViewChange
	}
	var queue []envelope
	engines := make(map[ids.ProcessID]*pbft.Engine)
	for i := 1; i < cluster.N; i++ {
		self := ids.Replica(i)
		engines[self] = pbft.NewEngine(pbft.EngineConfig{
			Cluster: cluster,
			Replica: self,
			Keys:    keys,
			Send: func(to ids.ProcessID, m any) {
				if vc, ok := m.(*pbft.ViewChange); ok {
					queue = append(queue, envelope{from: self, to: to, vc: vc})
				}
			},
			Deliver:           func([]msg.Request) {},
			ViewChangeTimeout: time.Second,
			Now:               func() time.Time { return now },
		})
	}
	e := engines[ids.Replica(1)]

	// closeWindow records n deliveries and closes one observation window.
	closeWindow := func(n int) bool {
		m.RecordDelivery(n)
		now = now.Add(window)
		return m.Observe(e)
	}

	if m.Observe(e) {
		t.Fatal("the first observation opened no window but was judged")
	}
	if closeWindow(100) {
		t.Error("grace window 1 judged")
	}
	if got, want := m.Expectation(), 0.9*1000; math.Abs(got-want) > 1e-6 {
		t.Errorf("expectation after 100 requests in %v = %v req/s, want %v", window, got, want)
	}
	if closeWindow(10) {
		t.Error("grace window 2 judged although it was slow")
	}
	if closeWindow(10) {
		t.Error("slow window judged with no request pending")
	}
	e.SubmitRequest(msg.Request{Client: ids.Client(0), Timestamp: 1})
	if e.PendingKnown() != 1 {
		t.Fatalf("engine knows %d pending requests, want 1", e.PendingKnown())
	}
	if !closeWindow(10) {
		t.Error("slow window with a pending request not judged")
	}

	for _, eng := range engines {
		eng.StartViewChange(1)
	}
	for len(queue) > 0 {
		env := queue[0]
		queue = queue[1:]
		if to, ok := engines[env.to]; ok {
			to.HandleMessage(env.from, env.vc)
		}
	}
	if e.View() != 1 {
		t.Fatalf("engine in view %d after the view change, want 1", e.View())
	}
	if m.Observe(e) {
		t.Error("the observation that saw the view change was judged")
	}
	if m.grace != 2 {
		t.Errorf("grace after the view change = %d, want 2", m.grace)
	}
	if closeWindow(10) || closeWindow(10) {
		t.Error("grace window after the view change judged")
	}
	if !closeWindow(10) {
		t.Error("slow window after the grace not judged")
	}
}
