package statesync

import "slices"

// DefaultStoreCapacity is the number of recent snapshots a replica retains.
// Keeping a small window (rather than only the latest) lets a responder serve
// FETCH-STATE requests pinned below the newest boundary — a fetcher aligning
// with an adopted base checkpoint or a restored merge boundary.
const DefaultStoreCapacity = 4

// Store retains the most recent snapshots of one replica, ordered by the
// position they cover. It is not synchronized: the host mutates it under its
// own lock.
//
// A replica captures every checkpoint boundary and in almost every interval
// nobody asks for the result, so a snapshot is added as it was captured — the
// application as a frozen view (Snapshot.Frozen), AppState and AppDigest
// unset — and the store serializes the view and digests the payload the
// first time the snapshot is read out (At, LatestAtOrBelow, Latest), keeping
// both. The view is the store's from Add on: it is released then, or when
// the snapshot leaves the store unread. The rest of the payload must not
// change once added.
type Store struct {
	capacity int
	snaps    []Snapshot // ascending Seq
	// floor pins the newest snapshot at or below it against capacity
	// eviction: a consumer (the sharded plane's merged mirror) still needs a
	// boundary that far back, however many newer boundaries were captured.
	floor uint64
}

// drop releases the frozen view of a snapshot leaving the store unread.
func drop(sn *Snapshot) {
	if sn.Frozen != nil {
		sn.Frozen.Release()
	}
	*sn = Snapshot{}
}

// NewStore returns a store retaining up to capacity snapshots
// (DefaultStoreCapacity when capacity <= 0).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultStoreCapacity
	}
	return &Store{capacity: capacity}
}

// Add records a snapshot, evicting beyond the capacity: normally the
// oldest, but the newest snapshot at or below the floor stays pinned.
// Snapshots are taken at monotonically increasing boundaries; a duplicate or
// out-of-order Seq is ignored.
func (s *Store) Add(sn Snapshot) {
	if n := len(s.snaps); n > 0 && sn.Seq <= s.snaps[n-1].Seq {
		drop(&sn)
		return
	}
	s.snaps = append(s.snaps, sn)
	for len(s.snaps) > s.capacity {
		i := 0
		if s.snaps[0].Seq <= s.floor && (len(s.snaps) < 2 || s.snaps[1].Seq > s.floor) {
			// snaps[0] is the newest boundary still covering the floor: evict
			// the next-oldest instead.
			i = 1
		}
		drop(&s.snaps[i])
		s.snaps = slices.Delete(s.snaps, i, i+1)
	}
}

// SetFloor pins the newest snapshot at or below seq against eviction.
func (s *Store) SetFloor(seq uint64) { s.floor = seq }

// readOut returns the i-th retained snapshot with its application state
// serialized and its payload digest computed, on first use, and memoized.
func (s *Store) readOut(i int) Snapshot {
	sn := &s.snaps[i]
	if sn.Frozen != nil {
		sn.AppState = sn.Frozen.Snapshot()
		sn.Frozen.Release()
		sn.Frozen = nil
	}
	if sn.AppDigest.IsZero() {
		sn.AppDigest = sn.PayloadDigest()
	}
	return *sn
}

// At returns the snapshot covering exactly seq.
func (s *Store) At(seq uint64) (Snapshot, bool) {
	for i := range s.snaps {
		if s.snaps[i].Seq == seq {
			return s.readOut(i), true
		}
	}
	return Snapshot{}, false
}

// indexAtOrBelow returns the index of the newest snapshot covering at most
// seq, or -1.
func (s *Store) indexAtOrBelow(seq uint64) int {
	i := len(s.snaps) - 1
	for i >= 0 && s.snaps[i].Seq > seq {
		i--
	}
	return i
}

// BoundaryAtOrBelow returns the position of the newest snapshot covering at
// most seq, without reading the snapshot out (nothing is serialized).
func (s *Store) BoundaryAtOrBelow(seq uint64) (uint64, bool) {
	if i := s.indexAtOrBelow(seq); i >= 0 {
		return s.snaps[i].Seq, true
	}
	return 0, false
}

// LatestAtOrBelow returns the newest snapshot covering at most seq.
func (s *Store) LatestAtOrBelow(seq uint64) (Snapshot, bool) {
	if i := s.indexAtOrBelow(seq); i >= 0 {
		return s.readOut(i), true
	}
	return Snapshot{}, false
}

// Latest returns the newest snapshot.
func (s *Store) Latest() (Snapshot, bool) {
	if len(s.snaps) == 0 {
		return Snapshot{}, false
	}
	return s.readOut(len(s.snaps) - 1), true
}

// DropAbove removes snapshots covering more than seq: a speculative tail
// containing a checkpoint boundary was rolled back, so the snapshots taken
// inside it describe state that never committed.
func (s *Store) DropAbove(seq uint64) {
	s.retain(func(sn *Snapshot) bool { return sn.Seq <= seq })
}

// PruneBelow drops snapshots covering less than seq (garbage collection once
// a newer checkpoint is stable everywhere).
func (s *Store) PruneBelow(seq uint64) {
	s.retain(func(sn *Snapshot) bool { return sn.Seq >= seq })
}

func (s *Store) retain(keep func(*Snapshot) bool) {
	kept := s.snaps[:0]
	for i := range s.snaps {
		if keep(&s.snaps[i]) {
			kept = append(kept, s.snaps[i])
		} else {
			drop(&s.snaps[i])
		}
	}
	clear(s.snaps[len(kept):])
	s.snaps = kept
}

// Len returns the number of retained snapshots.
func (s *Store) Len() int { return len(s.snaps) }
