package host

// maxBufferedRequests bounds the requests a SeqBuffer holds per instance, so
// a Byzantine orderer cannot grow it without limit; a span that does not fit
// is dropped and surfaces as loss (the client panics).
const maxBufferedRequests = 1024

// SeqBuffer holds the sequenced spans of one instance (ZLight ORDERs, Chain
// batches) that arrived ahead of its history, keyed by the position of their
// first request, until the gap before them is filled. The zero value is an
// empty buffer.
type SeqBuffer[M any] struct {
	spans map[uint64]bufferedSpan[M]
	// requests is the number of requests buffered over all spans.
	requests int
}

type bufferedSpan[M any] struct {
	m M
	n int
}

// Add buffers m, a span of n requests starting at position seq, replacing a
// span buffered at the same position, unless that would take the buffer
// past maxBufferedRequests requests.
func (b *SeqBuffer[M]) Add(seq uint64, n int, m M) {
	old := b.spans[seq]
	if b.requests-old.n+n > maxBufferedRequests {
		return
	}
	if b.spans == nil {
		b.spans = make(map[uint64]bufferedSpan[M])
	}
	b.spans[seq] = bufferedSpan[M]{m: m, n: n}
	b.requests += n - old.n
}

// Next removes and returns the span starting at st's next position. It drops
// every span the history has overtaken (a partially stale span can advance
// the history into the middle of a buffered one, which then never matches
// exactly), and returns nothing once st has stopped.
func (b *SeqBuffer[M]) Next(st *InstanceState) (m M, ok bool) {
	if st.Stopped {
		return m, false
	}
	next := st.AbsLen()
	for seq, s := range b.spans {
		if seq < next {
			delete(b.spans, seq)
			b.requests -= s.n
		}
	}
	s, ok := b.spans[next]
	if ok {
		delete(b.spans, next)
		b.requests -= s.n
	}
	return s.m, ok
}
