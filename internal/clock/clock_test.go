package clock

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// timerAPI is the package's two entry points, so the same behaviour tests
// run against AfterFunc (the timerfd path on Linux) and the fallback.
var timerAPI = []struct {
	name      string
	afterFunc func(time.Duration, func()) *Timer
}{
	{"AfterFunc", AfterFunc},
	{"fallback", stdAfterFunc},
}

func TestFiresOnceAndStopReportsIt(t *testing.T) {
	for _, api := range timerAPI {
		t.Run(api.name, func(t *testing.T) {
			fired := make(chan struct{}, 2)
			tm := api.afterFunc(time.Millisecond, func() { fired <- struct{}{} })
			select {
			case <-fired:
			case <-time.After(2 * time.Second):
				t.Fatal("never fired")
			}
			if tm.Stop() {
				t.Error("Stop after the callback started reported true")
			}
			select {
			case <-fired:
				t.Fatal("fired twice")
			case <-time.After(5 * time.Millisecond):
			}
		})
	}
}

func TestStopBeforeExpiry(t *testing.T) {
	for _, api := range timerAPI {
		t.Run(api.name, func(t *testing.T) {
			var stopped, rearmed atomic.Int32
			// A later deadline stays pending behind the stopped one: its fire
			// must come from the clock re-arming past a deadline nobody
			// waits for any more.
			late := make(chan struct{})
			api.afterFunc(6*time.Millisecond, func() { close(late) })
			tm := api.afterFunc(2*time.Millisecond, func() { stopped.Add(1) })
			if !tm.Stop() {
				t.Fatal("Stop before expiry reported false")
			}
			if tm.Stop() {
				t.Error("second Stop reported true")
			}
			// Re-armed the way the Batcher does it: a fresh AfterFunc.
			done := make(chan struct{})
			api.afterFunc(2*time.Millisecond, func() { rearmed.Add(1); close(done) })
			for _, c := range []chan struct{}{done, late} {
				select {
				case <-c:
				case <-time.After(2 * time.Second):
					t.Fatal("a timer behind a stopped one never fired")
				}
			}
			time.Sleep(5 * time.Millisecond)
			if n := stopped.Load(); n != 0 {
				t.Errorf("stopped timer ran its callback %d times", n)
			}
			if n := rearmed.Load(); n != 1 {
				t.Errorf("re-armed timer fired %d times, want 1", n)
			}
		})
	}
}

// Many overlapping deadlines, armed out of order, fire in deadline order:
// each callback starts at or after its own deadline and, box hiccups aside,
// well before the next timer's. Callbacks run in their own goroutines, so
// strict start order between two timers that are both due is the
// scheduler's, as with time.AfterFunc; what the clock owes is that none is
// early, none is lost, and none waits for an unrelated later deadline (a
// missed re-arm would leave a timer pending until the next arming).
func TestOverlappingDeadlinesFireInDeadlineOrder(t *testing.T) {
	const (
		n       = 64
		spacing = 250 * time.Microsecond
		late    = 20 * time.Millisecond // a descheduled test process, not a lost timer
	)
	for _, api := range timerAPI {
		t.Run(api.name, func(t *testing.T) {
			var wg sync.WaitGroup
			wg.Add(n)
			var deadline, started [n]time.Time
			var fires [n]atomic.Int32
			for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
				d := 2*time.Millisecond + time.Duration(i)*spacing
				deadline[i] = time.Now().Add(d)
				api.afterFunc(d, func() {
					if fires[i].Add(1) == 1 {
						started[i] = time.Now()
						wg.Done()
					}
				})
			}
			wg.Wait()
			time.Sleep(2 * time.Millisecond)
			inOrder := 0
			for i := range started {
				if got := fires[i].Load(); got != 1 {
					t.Errorf("timer %d fired %d times", i, got)
				}
				if started[i].Before(deadline[i]) {
					t.Errorf("timer %d started %v before its deadline", i, deadline[i].Sub(started[i]))
				}
				if over := started[i].Sub(deadline[i]); over > late {
					t.Errorf("timer %d started %v after its deadline", i, over)
				}
				if i == 0 || !started[i].Before(started[i-1]) {
					inOrder++
				}
			}
			t.Logf("%d of %d callbacks started in strict deadline order", inOrder, n)
		})
	}
}

// Arming and stopping from several goroutines at once (the race detector's
// view of the shared queue): every timer either fires or reports a
// successful Stop, never both, never neither.
func TestConcurrentArmStop(t *testing.T) {
	const workers, rounds = 8, 200
	var fired, stopped atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				tm := AfterFunc(time.Duration(rng.Intn(200))*time.Microsecond, func() { fired.Add(1) })
				if rng.Intn(2) == 0 {
					time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
				}
				if tm.Stop() {
					stopped.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for fired.Load()+stopped.Load() != workers*rounds && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if f, s := fired.Load(), stopped.Load(); f+s != workers*rounds {
		t.Fatalf("%d fired + %d stopped != %d armed", f, s, workers*rounds)
	}
}
