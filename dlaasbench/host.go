package main

import (
	"syscall"
	"time"
)

// The benchmark measures the simulator's real cost, so it reads the
// operating system's clocks and resource counters directly. Every
// real-time read in the benchmark goes through wallNow.

func wallNow() time.Time {
	return time.Now() //lint:allow wallclock the benchmark measures real elapsed time of the simulation
}

func wallSince(t time.Time) time.Duration { return wallNow().Sub(t) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// phaseMeter measures the timed phase of a workload: wall time, process
// CPU and virtual time elapsed.
type phaseMeter struct {
	wall0 time.Time
	cpu0  time.Duration
}

func startPhase() phaseMeter { return phaseMeter{wall0: wallNow(), cpu0: cpuTime()} }

// reading is a phase's cost so far.
type reading struct {
	wall, cpu, virtual time.Duration
}

// read takes a reading after virtual of simulated time.
func (m phaseMeter) read(virtual time.Duration) reading {
	return reading{wall: wallSince(m.wall0), cpu: cpuTime() - m.cpu0, virtual: virtual}
}

// speed is virtual seconds simulated per wall second.
func (rd reading) speed() float64 { return rd.virtual.Seconds() / rd.wall.Seconds() }

// report records cpu_ms_per_vs, peak_rss_mb and the phase's extent. Each
// workload records sim_speed itself, per platform.
func (rd reading) report(res *result) {
	vs := rd.virtual.Seconds()
	res.e2e("cpu_ms_per_vs", float64(rd.cpu)/float64(time.Millisecond)/vs, "ms/vs", 0)
	res.e2e("peak_rss_mb", peakRSSMB(), "MB", 0)
	res.e2e("timed_wall_s", rd.wall.Seconds(), "s", 0)
	res.e2e("timed_virtual_s", vs, "vs", 0)
}
