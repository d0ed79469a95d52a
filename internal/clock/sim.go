package clock

import (
	"container/heap"
	"sync"
	"time"
)

// Sim is a discrete-event virtual clock.
//
// Goroutines that Sleep or wait on timers are parked on an event heap keyed
// by virtual deadline. Virtual time advances in one of two ways:
//
//   - Explicitly, via Advance (deterministic unit tests).
//   - Automatically, via the idle-advance loop started by NewSim: once
//     quietWindow of real time has passed since a virtual event was last
//     scheduled or fired, and at least one waiter exists, the clock jumps
//     to the earliest pending deadline. This lets a fully concurrent
//     system of goroutines (services, kubelets, Raft nodes, training jobs)
//     run "as fast as the CPU allows" while every measured duration stays
//     in virtual units.
//
// The zero value is not usable; construct with NewSim or NewManual.
type Sim struct {
	mu       sync.Mutex
	now      time.Time
	events   eventHeap
	seq      uint64    // event sequence, breaks deadline ties FIFO
	active   time.Time // wall time of the last schedule or fire; read by idle-advance
	closed   bool
	stop     chan struct{}
	stopOnce sync.Once
}

var _ Clock = (*Sim)(nil)

// simEpoch is the instant at which every simulation starts. A fixed epoch
// keeps runs reproducible and avoids reading the wall clock.
var simEpoch = time.Date(2018, time.May, 17, 0, 0, 0, 0, time.UTC)

// quietWindow is how long (in real time) no event may be scheduled or
// fired before the idle-advance loop jumps virtual time forward. The loop
// waits the whole window in one timer sleep: the Go runtime rounds an idle
// sub-millisecond sleep up to 1 ms, so each extra poll inside the window
// would cost a millisecond per virtual instant.
const quietWindow = 400 * time.Microsecond

// NewSim returns a virtual clock whose idle-advance loop is running.
// Call Close when the simulation is finished to release the loop.
func NewSim() *Sim {
	s := &Sim{now: simEpoch, stop: make(chan struct{})}
	go s.idleAdvance()
	return s
}

// NewManual returns a virtual clock that only advances via Advance.
// Intended for deterministic unit tests.
func NewManual() *Sim {
	return &Sim{now: simEpoch, stop: make(chan struct{})}
}

// Close stops the idle-advance loop and releases every parked waiter by
// draining all pending events at their scheduled deadlines.
func (s *Sim) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	// Fire everything still pending so no goroutine leaks blocked on a
	// timer that can no longer advance. Firing may schedule more events
	// (tickers re-arm; schedule on a closed clock fires immediately), so
	// loop until drained.
	for {
		s.mu.Lock()
		if s.events.Len() == 0 {
			s.mu.Unlock()
			return
		}
		ev := heap.Pop(&s.events).(*event)
		if ev.when.After(s.now) {
			s.now = ev.when
		}
		when := s.now
		fire := s.detachLocked(ev)
		s.mu.Unlock()
		if fire != nil {
			fire(when)
		}
	}
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Since implements Clock.
func (s *Sim) Since(t time.Time) time.Duration { return s.Now().Sub(t) }

// Sleep implements Clock.
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	done := make(chan struct{})
	s.schedule(d, func(time.Time) { close(done) })
	<-done
}

// After implements Clock.
func (s *Sim) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	s.schedule(d, func(t time.Time) { ch <- t })
	return ch
}

// AfterFunc implements Clock.
func (s *Sim) AfterFunc(d time.Duration, f func()) Timer {
	t := &simTimer{s: s, ch: make(chan time.Time, 1)}
	t.fire = func(now time.Time) { go f() }
	t.ev = s.schedule(d, t.fire)
	return t
}

// NewTimer implements Clock.
func (s *Sim) NewTimer(d time.Duration) Timer {
	t := &simTimer{s: s, ch: make(chan time.Time, 1)}
	t.fire = func(now time.Time) {
		select {
		case t.ch <- now:
		default:
		}
	}
	t.ev = s.schedule(d, t.fire)
	return t
}

// NewTicker implements Clock.
func (s *Sim) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker interval")
	}
	t := &simTicker{s: s, d: d, ch: make(chan time.Time, 1)}
	t.arm()
	return t
}

// Advance moves virtual time forward by d, firing every event whose
// deadline falls inside the window in deadline order. Callbacks run
// without the clock lock held, so they may freely schedule follow-up
// events (tickers re-arm) inside the same window. It is primarily for
// manual clocks but is safe on auto clocks too.
func (s *Sim) Advance(d time.Duration) {
	s.mu.Lock()
	target := s.now.Add(d)
	for {
		if s.events.Len() == 0 || s.events[0].when.After(target) {
			break
		}
		ev := heap.Pop(&s.events).(*event)
		if ev.when.After(s.now) {
			s.now = ev.when
		}
		when := s.now
		fire := s.detachLocked(ev)
		s.mu.Unlock()
		if fire != nil {
			fire(when)
		}
		s.mu.Lock()
	}
	if target.After(s.now) {
		s.now = target
	}
	s.mu.Unlock()
}

// PendingEvents reports how many timers/sleepers are parked on the clock.
func (s *Sim) PendingEvents() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events.Len()
}

// event is a single scheduled occurrence on the virtual timeline.
type event struct {
	when    time.Time
	seq     uint64
	fire    func(time.Time)
	index   int  // heap index, -1 when removed
	stopped bool // canceled before firing
}

func (s *Sim) schedule(d time.Duration, fire func(time.Time)) *event {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ev := &event{when: s.now.Add(d), seq: s.seq, fire: fire}
	s.seq++
	s.active = time.Now()
	if s.closed {
		// Clock already closed: fire immediately so callers never hang.
		go fire(ev.when)
		ev.index = -1
		return ev
	}
	heap.Push(&s.events, ev)
	return ev
}

// detachLocked marks a popped event as fired and returns its callback,
// or nil if the event was canceled. The callback must be invoked without
// holding s.mu.
func (s *Sim) detachLocked(ev *event) func(time.Time) {
	ev.index = -1
	if ev.stopped {
		return nil
	}
	s.active = time.Now()
	return ev.fire
}

// cancel removes ev from the heap if still pending. Reports whether the
// event had not yet fired.
func (s *Sim) cancel(ev *event) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ev.index < 0 || ev.stopped {
		return false
	}
	ev.stopped = true
	heap.Remove(&s.events, ev.index)
	ev.index = -1
	return true
}

// idleAdvance is the auto-advance loop: once quietWindow has passed since
// the last schedule or fire and waiters exist, jump to the earliest
// deadline. One reused timer wakes the loop when the window would end.
func (s *Sim) idleAdvance() {
	wake := time.NewTimer(quietWindow)
	defer wake.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-wake.C:
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		if wait := quietWindow - time.Since(s.active); wait > 0 || s.events.Len() == 0 {
			// Not quiet yet: sleep out the rest of the window. Quiet
			// but nothing waits: look again a whole window later.
			s.mu.Unlock()
			if wait <= 0 {
				wait = quietWindow
			}
			wake.Reset(wait)
			continue
		}
		// Quiescent with pending events: jump to the next deadline and
		// fire every event scheduled for that same instant. Callbacks
		// run without the lock so they can schedule follow-up events.
		next := s.events[0].when
		s.now = next
		var fires []func(time.Time)
		for s.events.Len() > 0 && !s.events[0].when.After(next) {
			ev := heap.Pop(&s.events).(*event)
			if f := s.detachLocked(ev); f != nil {
				fires = append(fires, f)
			}
		}
		s.mu.Unlock()
		for _, f := range fires {
			f(next)
		}
		wake.Reset(quietWindow)
	}
}

type simTimer struct {
	s    *Sim
	mu   sync.Mutex
	ev   *event
	ch   chan time.Time
	fire func(time.Time) // the timer's behavior; Reset re-arms it intact
}

func (t *simTimer) C() <-chan time.Time { return t.ch }

func (t *simTimer) Stop() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.s.cancel(t.ev)
}

// Reset re-arms the timer with its original behavior — like
// time.Timer.Reset, an AfterFunc timer runs its function again, not a
// bare channel send (a Reset that dropped the function would, e.g., let
// a kept-alive lease never expire).
func (t *simTimer) Reset(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.s.cancel(t.ev)
	t.ev = t.s.schedule(d, t.fire)
}

type simTicker struct {
	s   *Sim
	d   time.Duration
	mu  sync.Mutex
	ev  *event
	ch  chan time.Time
	off bool
}

func (t *simTicker) C() <-chan time.Time { return t.ch }

func (t *simTicker) Stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.off = true
	if t.ev != nil {
		t.s.cancel(t.ev)
	}
}

func (t *simTicker) arm() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.off {
		return
	}
	t.ev = t.s.schedule(t.d, func(now time.Time) {
		select {
		case t.ch <- now:
		default:
		}
		t.arm()
	})
}

// eventHeap orders events by deadline, then scheduling order.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].when.Equal(h[j].when) {
		return h[i].seq < h[j].seq
	}
	return h[i].when.Before(h[j].when)
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}
