package resilience

import (
	"context"
	"sync"
	"time"
)

// Clock abstracts time for the retry and breaker layers so their
// behavior is unit-testable without wall-clock sleeps: backoff delays
// and breaker cooldowns advance on a FakeClock exactly as the test
// dictates.
type Clock interface {
	Now() time.Time
	// Sleep blocks for d or until ctx is done, returning ctx's error in
	// the latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

// RealClock is the wall clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (RealClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// FakeClock is a manually advanced clock for tests. Sleepers block
// until Advance moves the clock past their wake time (or their context
// is done).
type FakeClock struct {
	mu       sync.Mutex
	now      time.Time
	sleepers []*sleeper
}

type sleeper struct {
	at time.Time
	ch chan struct{}
}

// NewFakeClock returns a FakeClock starting at a fixed, arbitrary
// instant.
func NewFakeClock() *FakeClock {
	return &FakeClock{now: time.Unix(1_000_000, 0)}
}

// Now implements Clock.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep implements Clock: it blocks until Advance passes d or ctx is
// done.
func (c *FakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	c.mu.Lock()
	w := &sleeper{at: c.now.Add(d), ch: make(chan struct{})}
	c.sleepers = append(c.sleepers, w)
	c.mu.Unlock()
	select {
	case <-w.ch:
		return nil
	case <-ctx.Done():
		// Deregister, or the abandoned sleeper would sit in c.sleepers
		// until an Advance passes its deadline — inflating Sleepers()
		// and growing the slice for the clock's whole lifetime.
		c.remove(w)
		return ctx.Err()
	}
}

// remove drops a canceled sleeper; a no-op if Advance already woke it.
func (c *FakeClock) remove(w *sleeper) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, x := range c.sleepers {
		if x == w {
			c.sleepers = append(c.sleepers[:i], c.sleepers[i+1:]...)
			return
		}
	}
}

// Sleepers reports how many goroutines are currently blocked in Sleep —
// tests use it to know when Advance will actually wake someone.
func (c *FakeClock) Sleepers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sleepers)
}

// Advance moves the clock forward by d and wakes every sleeper whose
// deadline has passed.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var keep []*sleeper
	for _, w := range c.sleepers {
		if !w.at.After(c.now) {
			close(w.ch)
		} else {
			keep = append(keep, w)
		}
	}
	c.sleepers = keep
	c.mu.Unlock()
}
