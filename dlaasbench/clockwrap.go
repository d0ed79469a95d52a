package main

import (
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
)

// countingClock wraps the simulation clock of a traced run and counts
// every timer-creating call (Sleep, After, AfterFunc, NewTimer,
// NewTicker) by the module that made it. Each such call schedules a
// virtual instant the simulator must reach, so these counts attribute
// the simulator's idle-advance cost to layers.
type countingClock struct {
	base clock.Clock

	mu     sync.Mutex
	counts map[string]uint64
}

var _ clock.Clock = (*countingClock)(nil)

func newCountingClock(base clock.Clock) *countingClock {
	return &countingClock{base: base, counts: map[string]uint64{}}
}

// clockModules are the modules calls are attributed to; calls from any
// other package count as "other".
var clockModules = []string{"raft", "nfs", "kube", "mongo", "rpc", "etcd", "core", "netsim", "bench", "other"}

// moduleOf maps a function's package path to a module name.
func moduleOf(pkg string) string {
	switch {
	case pkg == "main":
		return "bench"
	case pkg == "repro":
		// The root package is the client edge: Client call retries and
		// WaitForState polling.
		return "rpc"
	case strings.HasPrefix(pkg, "repro/internal/core"):
		return "core"
	}
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		mod, _, _ := strings.Cut(rest, "/")
		switch mod {
		case "raft", "nfs", "kube", "mongo", "rpc", "etcd", "netsim":
			return mod
		}
	}
	return "other"
}

// funcPackage extracts the package path from a runtime function name
// such as "repro/internal/raft.(*Node).run".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// attribute counts one call against the first caller outside the clock
// package (skewed node clocks forward here). It is called directly from
// the Clock methods below, so three frames up is their caller.
func (c *countingClock) attribute() {
	var pcs [16]uintptr
	n := runtime.Callers(3, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	mod := "other"
	for {
		f, more := frames.Next()
		if pkg := funcPackage(f.Function); pkg != "repro/internal/clock" {
			mod = moduleOf(pkg)
			break
		}
		if !more {
			break
		}
	}
	c.mu.Lock()
	c.counts[mod]++
	c.mu.Unlock()
}

// snapshot returns the per-module counts so far.
func (c *countingClock) snapshot() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(c.counts))
	for k, v := range c.counts {
		out[k] = v
	}
	return out
}

func (c *countingClock) Now() time.Time                  { return c.base.Now() }
func (c *countingClock) Since(t time.Time) time.Duration { return c.base.Since(t) }

func (c *countingClock) Sleep(d time.Duration) {
	c.attribute()
	c.base.Sleep(d)
}

func (c *countingClock) After(d time.Duration) <-chan time.Time {
	c.attribute()
	return c.base.After(d)
}

func (c *countingClock) AfterFunc(d time.Duration, f func()) clock.Timer {
	c.attribute()
	return c.base.AfterFunc(d, f)
}

func (c *countingClock) NewTimer(d time.Duration) clock.Timer {
	c.attribute()
	return c.base.NewTimer(d)
}

func (c *countingClock) NewTicker(d time.Duration) clock.Ticker {
	c.attribute()
	return c.base.NewTicker(d)
}
