package main

import (
	"slices"
	"syscall"
	"time"
)

// clock is the time source of the open loop; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// Sleep parks the calling thread in nanosleep(2). time.Sleep would do, but
// an idle Go scheduler waits in epoll with millisecond resolution, which
// turns a 200 µs pause into 1.1 ms and would make every latency this
// harness reports mostly its own lateness.
func (wallClock) Sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only polls sooner
}

// openLoop is a fixed-rate send schedule: item k is due at start + k·gap
// whatever the system under test is doing, so a stall shows up as latency
// of the items that were due during it, not as a lower offered rate.
// Latency is measured from an item's due time, and how late the generator
// itself ran is kept per item.
type openLoop struct {
	clk   clock
	start time.Time
	gap   time.Duration
	late  []int64 // per item sent: send time − due time, ns
}

func newOpenLoop(clk clock, perSecond float64, items int) *openLoop {
	return &openLoop{
		clk:   clk,
		start: clk.Now(),
		gap:   time.Duration(float64(time.Second) / perSecond),
		late:  make([]int64, 0, items),
	}
}

// dueAt is when item k is due.
func (o *openLoop) dueAt(k int) time.Time { return o.start.Add(time.Duration(k) * o.gap) }

// dueCount is how many items are due at time now (items 0 … n−1).
func (o *openLoop) dueCount(now time.Time) int {
	d := now.Sub(o.start)
	if d < 0 {
		return 0
	}
	return int(d/o.gap) + 1
}

// sent records that the next item went out at time now.
func (o *openLoop) sent(now time.Time) {
	o.late = append(o.late, int64(now.Sub(o.dueAt(len(o.late)))))
}

// lateness returns the q-quantile of how late items were sent.
func (o *openLoop) lateness(q float64) time.Duration {
	return time.Duration(quantileInt64(o.late, q))
}

// quantileInt64 is the exact q-quantile (nearest rank) of vs, which it
// sorts in place.
func quantileInt64(vs []int64, q float64) int64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	i := int(q*float64(len(vs))+0.5) - 1
	return vs[min(max(i, 0), len(vs)-1)]
}
