// Package sim provides the deterministic simulation substrate shared by the
// rest of the repository: a virtual clock, a reproducible random number
// generator, a discrete-event engine, and the multi-channel storage device
// that stands in for the paper's real PostgreSQL-on-disk testbed.
//
// All experiments in the repository run on virtual time. A query "executes"
// by paying simulated latencies for each page request (buffer hit, OS cache
// copy, or disk read), so speedup ratios are deterministic and independent of
// the host machine.
package sim

import (
	"fmt"
	"time"
)

// Time is a point on the virtual timeline, expressed as a duration since the
// start of the simulation. The zero value is the simulation epoch.
type Time time.Duration

// Duration aliases time.Duration for virtual intervals, so call sites read
// naturally (sim.Time + sim.Duration = sim.Time).
type Duration = time.Duration

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the interval t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u on the timeline.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u on the timeline.
func (t Time) After(u Time) bool { return t > u }

// String formats the virtual time as a duration since the epoch.
func (t Time) String() string { return time.Duration(t).String() }

// Clock tracks the current virtual time. It is advanced only by the event
// engine; it never reads the wall clock.
type Clock struct {
	now Time
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// AdvanceTo moves the clock forward to t. It panics if t precedes the current
// time: virtual time never rewinds, and moving backward always indicates a
// bookkeeping bug in the caller.
func (c *Clock) AdvanceTo(t Time) {
	if t.Before(c.now) {
		panic(fmt.Sprintf("sim: clock moved backward from %v to %v", c.now, t))
	}
	c.now = t
}
