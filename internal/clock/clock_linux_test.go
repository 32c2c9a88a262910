package clock

import (
	"os"
	"runtime"
	"slices"
	"testing"
	"time"
)

// requireTimerfd returns the process clock, skipping the test where the
// kernel (or a sandbox's syscall filter) provides no timerfd.
func requireTimerfd(t *testing.T) *fdClock {
	t.Helper()
	c := processClock()
	if c == nil {
		_, err := newFDClock()
		t.Skipf("timerfd unavailable, AfterFunc is the fallback: %v", err)
	}
	return c
}

// The table of the package comment as a regression test: a 1 ms deadline
// armed ahead of 0 / 300 / 800 µs of activity. On runtime timers a fire is
// up to 0.1 / 0.4 / 0.9 ms late (it depends on which thread happens to sit
// in the netpoller); on the timerfd all three stay ~0.1 ms.
//
// The bound is on the median, best of three attempts: the box only ever adds
// lateness (a halted vCPU takes 0.3-1 ms to come back; under `go test ./...`
// a neighbouring test binary owns both cores for a while), so one attempt
// may be late through no fault of the clock; three in a row are not.
func TestDeadlineKeptWhenBusyAfterArming(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector: wake-up latency is not the code's")
	}
	requireTimerfd(t)
	const (
		delay     = time.Millisecond
		tolerance = 250 * time.Microsecond
		trials    = 41
		attempts  = 3
	)
	for _, busy := range []time.Duration{0, 300 * time.Microsecond, 800 * time.Microsecond} {
		t.Run(busy.String(), func(t *testing.T) {
			fired := make(chan time.Time, 1)
			overshoot := make([]time.Duration, trials)
			for attempt := 1; ; attempt++ {
				for i := range overshoot {
					t0 := time.Now()
					AfterFunc(delay, func() { fired <- time.Now() })
					for time.Since(t0) < busy {
					}
					overshoot[i] = (<-fired).Sub(t0) - delay
					// Idle between trials: the runtime rounds from the
					// moment the process last went to sleep.
					time.Sleep(2 * time.Millisecond)
				}
				slices.Sort(overshoot)
				t.Logf("attempt %d: overshoot p25 %v, p50 %v, p90 %v", attempt, overshoot[trials/4], overshoot[trials/2], overshoot[trials*9/10])
				if overshoot[0] < 0 {
					t.Fatalf("fired %v before its deadline", -overshoot[0])
				}
				if overshoot[trials/2] < tolerance {
					return
				}
				if attempt == attempts {
					t.Fatalf("median overshoot %v of a %v deadline in each of %d attempts, want < %v", overshoot[trials/2], delay, attempts, tolerance)
				}
			}
		})
	}
}

func TestArmStopCyclesLeaveOneFdAndOneGoroutine(t *testing.T) {
	requireTimerfd(t)
	openFds := func() int {
		t.Helper()
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count open fds: %v", err)
		}
		return len(fds)
	}
	fds, goroutines := openFds(), runtime.NumGoroutine()
	for i := 0; i < 10000; i++ {
		if !AfterFunc(time.Hour, func() { t.Error("an hour-long timer fired") }).Stop() {
			t.Fatalf("cycle %d: Stop reported false", i)
		}
	}
	if got := openFds(); got != fds {
		t.Errorf("open fds %d -> %d over 10k arm/stop cycles", fds, got)
	}
	// Not !=: a callback goroutine of an earlier test may still be exiting.
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Errorf("goroutines %d -> %d over 10k arm/stop cycles", goroutines, got)
	}
	c := processClock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pending) != 0 {
		t.Errorf("%d timers still pending after every one was stopped", len(c.pending))
	}
}

// The queue run pops from is ordered by deadline whatever the arming order,
// and stopping one entry leaves the rest in place. Hour-long deadlines, so
// nothing expires underneath the assertions.
func TestPendingQueueOrder(t *testing.T) {
	c := requireTimerfd(t)
	var timers []*Timer
	for _, hours := range []time.Duration{3, 1, 4, 2} {
		timers = append(timers, AfterFunc(hours*time.Hour, func() { t.Error("an hour-long timer fired") }))
	}
	check := func(want ...*Timer) {
		t.Helper()
		c.mu.Lock()
		defer c.mu.Unlock()
		if !slices.Equal(c.pending, want) {
			t.Errorf("pending queue holds %d timers in the wrong order or number, want %d", len(c.pending), len(want))
		}
	}
	check(timers[1], timers[3], timers[0], timers[2])
	timers[3].Stop()
	check(timers[1], timers[0], timers[2])
	timers[1].Stop() // the head: the fd stays armed for it, which is harmless
	check(timers[0], timers[2])
	timers[0].Stop()
	timers[2].Stop()
	check()
}

// A deadline that is not earlier than what the fd is already set to (here:
// for a timer stopped since, a saturated Batcher's steady state) costs no
// timerfd_settime, and still fires on time: run re-arms for it when the
// stale expiry wakes it. An earlier one re-arms at once.
func TestLaterDeadlineRidesOnTheArmedFd(t *testing.T) {
	requireTimerfd(t)
	// A clock of its own: the process clock may be armed for an earlier
	// test's deadline. Its fd and goroutine live until the test binary exits.
	c, err := newFDClock()
	if err != nil {
		t.Fatal(err)
	}
	armed := func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.armed
	}
	stale := afterFunc(c, 10*time.Millisecond, func() { t.Error("a stopped timer fired") })
	stale.Stop()
	if got := armed(); got != stale.when {
		t.Fatalf("fd armed for %d after arm+stop, want the stopped deadline %d", got, stale.when)
	}
	const delay = 20 * time.Millisecond
	fired := make(chan time.Time, 1)
	t0 := time.Now()
	later := afterFunc(c, delay, func() { fired <- time.Now() })
	if got := armed(); got != stale.when {
		t.Errorf("a later deadline re-armed the fd (%d -> %d)", stale.when, got)
	}
	earlier := afterFunc(c, 5*time.Millisecond, func() { t.Error("a stopped timer fired") })
	if got := armed(); got != earlier.when {
		t.Errorf("fd armed for %d, want the earlier deadline %d", got, earlier.when)
	}
	earlier.Stop()
	select {
	case at := <-fired:
		if took := at.Sub(t0); took < delay || took > delay+20*time.Millisecond {
			t.Errorf("the deadline behind the stale expiries fired after %v, want %v", took, delay)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the deadline behind the stale expiries never fired")
	}
	if later.Stop() {
		t.Error("Stop after the fire reported true")
	}
}

// With no timerfd (a nil clock) AfterFunc is the fallback, and Stop follows
// the Timer there.
func TestNilClockSelectsFallback(t *testing.T) {
	tm := afterFunc(nil, time.Hour, func() { t.Error("an hour-long timer fired") })
	if tm.std == nil {
		t.Fatal("afterFunc on a nil clock did not build a runtime timer")
	}
	if !tm.Stop() || tm.Stop() {
		t.Error("Stop on the fallback path: want true then false")
	}
}
