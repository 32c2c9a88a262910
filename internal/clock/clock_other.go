//go:build !linux

package clock

import "time"

// A Timer is one pending call made by AfterFunc.
type Timer struct {
	std *time.Timer
}

// AfterFunc waits for d to elapse and then calls f in its own goroutine.
// Off Linux there is no timerfd: deadlines have the runtime's precision
// (sub-millisecond waits are rounded up to at least 1 ms).
func AfterFunc(d time.Duration, f func()) *Timer { return stdAfterFunc(d, f) }

// Stop prevents the Timer from firing. It reports whether the call stopped
// it: false means f has already been started, or Stop was called before.
func (t *Timer) Stop() bool { return t.std.Stop() }
