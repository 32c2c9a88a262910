package host

import (
	"slices"
	"syscall"
	"testing"
	"time"
)

// A timer flush lands on the policy's deadline even when the process stays
// busy after the first Add, which is what a primary under load does: 500 µs
// of activity, then idle. On a runtime timer the 1 ms wait is counted from
// the moment the process went idle (flush at ~1.6 ms); on internal/clock's
// timerfd it is counted from the Add.
func TestBatcherTimerFlushOnTimeWhenBusyAfterAdd(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector: wake-up latency is not the code's")
	}
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, 0, 0)
	if errno != 0 {
		t.Skipf("no timerfd here, the Batcher's deadline is a runtime timer: %v", errno)
	}
	syscall.Close(int(fd))

	const (
		busy     = 500 * time.Microsecond
		bound    = 1350 * time.Microsecond
		trials   = 31
		attempts = 3
	)
	h := newBatcherHost(t, BatchPolicy{}) // the defaults: 16 / 1 ms
	flushed := make(chan time.Time, 1)
	b := h.NewBatcher(func([]BatchItem) { flushed <- time.Now() })
	took := make([]time.Duration, trials)
	ts := uint64(0)
	// The median, best of three attempts: a busy box adds lateness to an
	// attempt, never removes it (see internal/clock's
	// TestDeadlineKeptWhenBusyAfterArming).
	for attempt := 1; ; attempt++ {
		for i := range took {
			ts++
			t0 := time.Now()
			h.Locked(func() { b.Add(BatchItem{Req: req(0, ts)}) })
			for time.Since(t0) < busy {
			}
			took[i] = (<-flushed).Sub(t0)
			time.Sleep(2 * time.Millisecond)
		}
		slices.Sort(took)
		t.Logf("attempt %d: Add-to-timer-flush p25 %v, p50 %v, p90 %v", attempt, took[trials/4], took[trials/2], took[trials*9/10])
		if took[0] < DefaultMaxDelay {
			t.Fatalf("a timer flush landed after %v, before MaxDelay", took[0])
		}
		if took[trials/2] < bound {
			return
		}
		if attempt == attempts {
			t.Fatalf("median Add-to-timer-flush %v with %v of activity after the Add in each of %d attempts, want < %v", took[trials/2], busy, attempts, bound)
		}
	}
}
