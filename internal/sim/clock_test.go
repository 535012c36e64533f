package sim

import (
	"testing"
	"time"
)

func TestClockZeroValue(t *testing.T) {
	var c Clock
	if got := c.Now(); got != 0 {
		t.Fatalf("zero clock Now() = %v, want 0", got)
	}
	c.Advance(5 * time.Millisecond)
	if got := c.Now(); got != 5*time.Millisecond {
		t.Fatalf("after Advance Now() = %v, want 5ms", got)
	}
}

func TestClockNewClockStart(t *testing.T) {
	c := NewClock(3 * time.Second)
	if got := c.Now(); got != 3*time.Second {
		t.Fatalf("Now() = %v, want 3s", got)
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	var c Clock
	c.Advance(-time.Second)
}

func TestClockAdvanceToPast(t *testing.T) {
	c := NewClock(10 * time.Second)
	c.AdvanceTo(5 * time.Second)
	if got := c.Now(); got != 10*time.Second {
		t.Fatalf("AdvanceTo past moved clock to %v", got)
	}
}

func TestClockTimerFiresAtDeadline(t *testing.T) {
	var c Clock
	var firedAt time.Duration = -1
	c.After(100*time.Millisecond, func(now time.Duration) { firedAt = now })

	c.Advance(99 * time.Millisecond)
	if firedAt != -1 {
		t.Fatalf("timer fired early at %v", firedAt)
	}
	c.Advance(time.Millisecond)
	if firedAt != 100*time.Millisecond {
		t.Fatalf("timer fired at %v, want 100ms", firedAt)
	}
}

func TestClockTimersFireInDeadlineOrder(t *testing.T) {
	var c Clock
	var order []int
	c.After(30*time.Millisecond, func(time.Duration) { order = append(order, 3) })
	c.After(10*time.Millisecond, func(time.Duration) { order = append(order, 1) })
	c.After(20*time.Millisecond, func(time.Duration) { order = append(order, 2) })

	c.Advance(time.Second)
	want := []int{1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("fired %d timers, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fire order %v, want %v", order, want)
		}
	}
}

func TestClockTimerSeesExactDeadline(t *testing.T) {
	var c Clock
	c.After(7*time.Millisecond, func(now time.Duration) {
		if now != 7*time.Millisecond {
			t.Errorf("callback now = %v, want 7ms", now)
		}
	})
	c.Advance(time.Hour)
}

func TestClockTimerCanScheduleTimer(t *testing.T) {
	var c Clock
	var second time.Duration = -1
	c.After(10*time.Millisecond, func(time.Duration) {
		c.After(10*time.Millisecond, func(now time.Duration) { second = now })
	})
	c.Advance(time.Second)
	if second != 20*time.Millisecond {
		t.Fatalf("chained timer fired at %v, want 20ms", second)
	}
}

func TestClockNegativeAfterFiresImmediatelyOnNextAdvance(t *testing.T) {
	c := NewClock(time.Second)
	var firedAt time.Duration = -1
	c.After(-time.Minute, func(now time.Duration) { firedAt = now })
	c.Advance(time.Nanosecond)
	if firedAt != time.Second {
		t.Fatalf("fired at %v, want 1s (clamped to schedule instant)", firedAt)
	}
}

func TestClockPendingTimers(t *testing.T) {
	var c Clock
	for i := 0; i < 5; i++ {
		c.After(time.Duration(i+1)*time.Millisecond, func(time.Duration) {})
	}
	if got := c.PendingTimers(); got != 5 {
		t.Fatalf("PendingTimers = %d, want 5", got)
	}
	c.Advance(3 * time.Millisecond)
	if got := c.PendingTimers(); got != 2 {
		t.Fatalf("PendingTimers after advance = %d, want 2", got)
	}
}

func TestClockManyTimersCompaction(t *testing.T) {
	var c Clock
	fired := 0
	for i := 0; i < 500; i++ {
		c.After(time.Duration(i)*time.Microsecond, func(time.Duration) { fired++ })
	}
	c.Advance(time.Second)
	if fired != 500 {
		t.Fatalf("fired %d timers, want 500", fired)
	}
	if got := c.PendingTimers(); got != 0 {
		t.Fatalf("PendingTimers = %d, want 0", got)
	}
}

func TestNewRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed produced different streams")
		}
	}
}
