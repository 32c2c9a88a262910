package host

import (
	"time"

	"abstractbft/internal/authn"
	"abstractbft/internal/core"
	"abstractbft/internal/ids"
	"abstractbft/internal/msg"
	"abstractbft/internal/obs"
)

// BuildResp assembles the speculative RESP message sent to a client by
// ZLight and Quorum replicas (Step Z3 / Q2): the application reply (full
// payload only from the designated replica, digest otherwise), the digest of
// the replica's local history, and a MAC for the client.
func (h *Host) BuildResp(st *InstanceState, req msg.Request, reply []byte, designated bool) *core.RespMessage {
	resp := new(core.RespMessage)
	h.fillResp(resp, st, req, reply, designated)
	return resp
}

// BuildResps assembles the RESPs of a just-executed batch in one allocation:
// the i-th element answers batch.Requests[i] with replies[i]. Null operations
// have no client; their elements stay zero.
func (h *Host) BuildResps(st *InstanceState, batch msg.Batch, replies [][]byte, designated bool) []core.RespMessage {
	resps := make([]core.RespMessage, len(batch.Requests))
	for i, req := range batch.Requests {
		if req.Client != ids.NullOp {
			h.fillResp(&resps[i], st, req, replies[i], designated)
		}
	}
	return resps
}

func (h *Host) fillResp(resp *core.RespMessage, st *InstanceState, req msg.Request, reply []byte, designated bool) {
	*resp = core.RespMessage{
		Instance:      st.ID,
		Replica:       h.id,
		Client:        req.Client,
		Timestamp:     req.Timestamp,
		ReplyDigest:   authn.Hash(reply),
		HistoryDigest: st.HistoryDigest(),
		HistoryLen:    st.AbsLen(),
	}
	if designated {
		resp.Reply = reply
	}
	resp.HistoryDigests = h.InstrumentedHistory(st)
	macBytes := resp.MACBytes()
	resp.MAC = h.keys.MAC(h.id, req.Client, macBytes[:])
	// A traced request marks the speculative reply leaving the replica as a
	// zero-duration point event (span only; no histogram sample).
	if req.Trace.Sampled() {
		h.cfg.Tracer.Record(req.Trace, obs.StageReply, h.cfg.Shard, time.Now(), 0)
	}
}

// VerifyClientAuth verifies the client's authenticator entry addressed to
// this replica over the given bytes.
func (h *Host) VerifyClientAuth(a authn.Authenticator, data []byte) error {
	return h.keys.Verify(a, h.id, data)
}

// MACFor computes a MAC from this replica to the given process.
func (h *Host) MACFor(to ids.ProcessID, data []byte) authn.MAC {
	return h.keys.MAC(h.id, to, data)
}

// VerifyMACFrom verifies a MAC from another process to this replica.
func (h *Host) VerifyMACFrom(from ids.ProcessID, data []byte, m authn.MAC) error {
	return h.keys.VerifyMAC(from, h.id, data, m)
}
