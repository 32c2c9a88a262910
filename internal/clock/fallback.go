// Package clock is the process's sub-millisecond deadline primitive:
// AfterFunc(d, f) runs f in its own goroutine once d has elapsed, and the
// returned Timer's Stop cancels it — the shape of time.AfterFunc, for
// deadlines that have to fire on time.
//
// time.AfterFunc does not: a runtime timer is noticed by the netpoller's
// epoll *timeout*, which the runtime rounds up to whole milliseconds and
// counts from when the process last went idle, not from when the timer was
// armed. A 1 ms timer armed ahead of 0 / 300 / 800 µs of activity fires at
// 1.1 / 1.4 / 1.9 ms. On Linux (clock_linux.go) every deadline of the process
// instead shares one timerfd wrapped in an os.File: the goroutine reading it
// is woken by the netpoller's fd *readiness*, which has hrtimer precision
// (~0.1 ms wake-up, however busy the process was in between).
//
// Everywhere else, and on Linux when the fd cannot be created, AfterFunc is
// time.AfterFunc: this file, the only place the package touches a runtime
// timer.
package clock

import "time"

// stdAfterFunc is AfterFunc on the runtime's timers.
func stdAfterFunc(d time.Duration, f func()) *Timer {
	return &Timer{std: time.AfterFunc(d, f)}
}
