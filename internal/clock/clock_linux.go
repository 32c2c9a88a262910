package clock

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// A Timer is one pending call made by AfterFunc.
type Timer struct {
	f    func()
	c    *fdClock
	when int64 // the deadline on c's clock
	// std replaces all of the above when the process has no timerfd.
	std *time.Timer
}

// AfterFunc waits for d to elapse and then calls f in its own goroutine.
// The deadline is kept to within the kernel's hrtimer wake-up (~0.1 ms)
// whatever d is and however busy the process stays in between.
func AfterFunc(d time.Duration, f func()) *Timer { return afterFunc(processClock(), d, f) }

// afterFunc is AfterFunc on c; a nil c (no timerfd) selects the fallback.
func afterFunc(c *fdClock, d time.Duration, f func()) *Timer {
	if c == nil {
		return stdAfterFunc(d, f)
	}
	t := &Timer{f: f, c: c}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	if t.when = now + int64(max(d, 0)); t.when < now {
		t.when = math.MaxInt64
	}
	// After every deadline that is not later: equal deadlines fire in the
	// order they were armed.
	i := sort.Search(len(c.pending), func(i int) bool { return c.pending[i].when > t.when })
	c.pending = slices.Insert(c.pending, i, t)
	// A fd already set to expire by then is left alone: run re-arms it for
	// the head when it wakes. A saturated Batcher arms and stops a deadline
	// per size flush, thousands a second under the host lock; this keeps it
	// to one syscall per expiry of the fd, about one per MaxDelay.
	if i == 0 && (c.armed == 0 || t.when < c.armed) {
		c.arm(now, t.when)
	}
	return t
}

// Stop prevents the Timer from firing. It reports whether the call stopped
// it: false means f has already been started, or Stop was called before.
func (t *Timer) Stop() bool {
	if t.std != nil {
		return t.std.Stop()
	}
	c := t.c
	c.mu.Lock()
	defer c.mu.Unlock()
	i := slices.Index(c.pending, t)
	if i < 0 {
		return false
	}
	// The fd is left alone: if it was armed for t it wakes run once with
	// nothing due, which costs less than a syscall on every stop.
	c.pending = slices.Delete(c.pending, i, i+1)
	return true
}

// processClock returns the timerfd clock every AfterFunc of the process
// shares, created on first use and never closed (so no caller needs a close
// path), or nil when the kernel would not provide one.
var processClock = sync.OnceValue(func() *fdClock {
	c, _ := newFDClock() // on error: nil, and AfterFunc is the fallback
	return c
})

// fdClock multiplexes deadlines onto one timerfd: the fd is always set to
// expire no later than the earliest pending deadline, and run, parked in
// the netpoller on the fd's readiness, starts what is due when it does.
type fdClock struct {
	fd    int      // for timerfd_settime
	file  *os.File // the same fd, registered with the netpoller; owns it
	epoch time.Time

	mu sync.Mutex
	// pending holds the Timers neither fired nor stopped, earliest deadline
	// first. A sorted slice searched linearly by Stop, not a heap: a process
	// has one entry per Batcher with a partial batch.
	pending []*Timer
	// armed is the deadline the fd was last set to expire at, 0 once run has
	// consumed that expiry. While it is non-zero run is certain to take mu
	// at or soon after it and to re-arm the fd for the head of pending, so
	// a new head that is not earlier needs no timerfd_settime of its own.
	armed int64
}

func newFDClock() (*fdClock, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	file := os.NewFile(fd, "timerfd")
	// Only a file the netpoller watches takes a deadline; one it does not
	// would fail every Read with EAGAIN instead of parking.
	if err := file.SetReadDeadline(time.Time{}); err != nil {
		file.Close()
		return nil, fmt.Errorf("clock: timerfd not pollable: %w", err)
	}
	c := &fdClock{fd: int(fd), file: file, epoch: time.Now()}
	go c.run()
	return c, nil
}

// now is the clock's reading: monotonic nanoseconds since it was created,
// the same CLOCK_MONOTONIC the fd counts on.
func (c *fdClock) now() int64 { return int64(time.Since(c.epoch)) }

// arm sets the fd to expire at when, replacing whatever it was set to (c.mu
// held; now is the clock's current reading). timerfd_settime never blocks,
// so it is issued as a RawSyscall: the scheduler hand-off of the Syscall
// variant costs more than the call, on the goroutine that holds the host
// lock.
func (c *fdClock) arm(now, when int64) {
	c.armed = when
	// Relative and one-shot; a zero value would disarm the fd.
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(max(when-now, 1))}
	if _, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(c.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		panic("clock: timerfd_settime: " + errno.Error())
	}
}

// run starts every due Timer each time the fd expires, then re-arms the fd
// for the earliest one left. It lives as long as the process.
func (c *fdClock) run() {
	var expirations [8]byte // the fd's counter; only its arrival matters
	var due []*Timer
	for {
		if _, err := c.file.Read(expirations[:]); err != nil {
			// Nothing closes the file or sets a deadline on it, so this is
			// a bug; carrying on would silently drop every deadline.
			panic("clock: reading the timerfd: " + err.Error())
		}
		c.mu.Lock()
		c.armed = 0
		now := c.now()
		n := sort.Search(len(c.pending), func(i int) bool { return c.pending[i].when > now })
		due = append(due[:0], c.pending[:n]...)
		c.pending = slices.Delete(c.pending, 0, n)
		if len(c.pending) > 0 {
			c.arm(now, c.pending[0].when)
		}
		c.mu.Unlock()
		for i, t := range due {
			go t.f()
			due[i] = nil
		}
	}
}
