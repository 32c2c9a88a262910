package host

// NullOpOrderer is implemented by protocol replicas whose orderer can inject
// a Mencius-style null operation into the instance's history: a request from
// the reserved ids.NullOp identity with an empty command, ordered like any
// other request but executed by nobody and answered to nobody. The sharded
// plane's per-replica node asks an idle shard's leader to order null-ops
// when the other shards have completed a merge round, so the deterministic
// cross-shard merge advances without waiting on shards that have no traffic.
type NullOpOrderer interface {
	// OrderNullOp orders one null operation if the replica currently can
	// (it is the orderer, the instance is live, and no real traffic is
	// waiting); it reports whether a null-op was ordered.
	OrderNullOp() bool
}

// OrderNullOp asks the active instance's protocol replica to order one null
// operation. It is safe to call from any goroutine and reports whether a
// null-op was ordered.
func (h *Host) OrderNullOp() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.instances[h.active]
	if st.Stopped || !st.Initialized {
		return false
	}
	if p, ok := st.proto.(NullOpOrderer); ok {
		return p.OrderNullOp()
	}
	return false
}
