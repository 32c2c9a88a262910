package msg

import (
	"abstractbft/internal/authn"
	"abstractbft/internal/obs"
)

// Batch is an ordered sequence of client requests treated as one unit of the
// request plane: protocols order, authenticate, log, and speculatively
// execute a whole batch in a single protocol step, fanning per-request
// replies back out to the invoking clients. A batch of one request is the
// degenerate case and is semantically identical to the unbatched path.
type Batch struct {
	Requests []Request
}

// BatchOf builds a batch from the given requests.
func BatchOf(reqs ...Request) Batch { return Batch{Requests: reqs} }

// TraceCtx returns the batch's tracing context: the first sampled member's
// (a trace context rides on its request alone). The zero context means the
// batch is untraced.
func (b Batch) TraceCtx() obs.TraceContext {
	for i := range b.Requests {
		if b.Requests[i].Trace.Sampled() {
			return b.Requests[i].Trace
		}
	}
	return obs.TraceContext{}
}

// Len returns the number of requests in the batch.
func (b Batch) Len() int { return len(b.Requests) }

// Digests returns the per-request digests in batch order. A handler hashes
// each request of a batch once and reuses the digests for the batch MAC
// (DigestOf), the per-request authenticators, and logging.
func (b Batch) Digests() []authn.Digest {
	ds := make([]authn.Digest, len(b.Requests))
	for i := range b.Requests {
		ds[i] = b.Requests[i].Digest()
	}
	return ds
}

// Digest returns the collision-resistant digest of the batch: the fold of the
// per-request digests. It is the value covered by batch-level MACs (one
// authenticator per batch rather than one per request).
func (b Batch) Digest() authn.Digest { return DigestOf(b.Digests()) }

// DigestOf folds per-request digests into the batch digest:
// b.Digest() == DigestOf(b.Digests()).
func DigestOf(digests []authn.Digest) authn.Digest {
	// A full default batch (16 requests) fits the stack array; the parts only
	// alias the caller's digests.
	var buf [16][]byte
	parts := buf[:0]
	for i := range digests {
		parts = append(parts, digests[i][:])
	}
	return authn.HashAll(parts...)
}
