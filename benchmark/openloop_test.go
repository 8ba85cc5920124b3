package main

import (
	"testing"
	"time"
)

// fakeClock only moves when told to.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopDueTimes(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	loop := newOpenLoop(clk, 1000, 100) // one item per millisecond
	start := clk.now

	if got := loop.dueCount(clk.now); got != 1 {
		t.Errorf("at the start %d items are due, want 1 (item 0)", got)
	}
	clk.Sleep(2500 * time.Microsecond)
	if got := loop.dueCount(clk.now); got != 3 {
		t.Errorf("after 2.5 ms %d items are due, want 3", got)
	}
	if got := loop.dueAt(7).Sub(start); got != 7*time.Millisecond {
		t.Errorf("item 7 due after %v, want 7ms", got)
	}
	if got := loop.dueCount(start.Add(-time.Second)); got != 0 {
		t.Errorf("before the start %d items are due", got)
	}
}

// A stalled generator must not hide the stall: the items that were due
// during it are late by how long they waited, and latency counts from
// their due time, not from when they finally went out.
func TestOpenLoopStallShowsAsLateness(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	loop := newOpenLoop(clk, 1000, 100)

	loop.sent(clk.now) // item 0, on time
	clk.Sleep(10 * time.Millisecond)
	due := loop.dueCount(clk.now)
	if due != 11 {
		t.Fatalf("after a 10 ms stall %d items are due, want 11", due)
	}
	for k := 1; k < due; k++ {
		loop.sent(clk.now) // the backlog goes out at once
	}
	// Items 1 … 10 were due at 1 … 10 ms and all left at 10 ms.
	if got := loop.lateness(1); got != 9*time.Millisecond {
		t.Errorf("worst lateness %v, want 9ms (item 1)", got)
	}
	if got := loop.lateness(0.5); got != 4*time.Millisecond {
		t.Errorf("median lateness %v, want 4ms", got)
	}

	// Item 5 is served 2 ms after the backlog went out: 7 ms after it was
	// due, though only 2 ms after it was sent.
	served := clk.now.Add(2 * time.Millisecond)
	if got := served.Sub(loop.dueAt(5)); got != 7*time.Millisecond {
		t.Errorf("due-time latency %v, want 7ms", got)
	}
}
