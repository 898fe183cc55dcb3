package resilience

import "context"

// Bulkhead limits the number of concurrent calls a backend sees —
// isolation against one slow backend absorbing every worker goroutine.
// A nil *Bulkhead admits everything.
type Bulkhead struct {
	slots chan struct{}
}

// NewBulkhead returns a bulkhead admitting up to n concurrent calls
// (n <= 0 returns nil: unlimited).
func NewBulkhead(n int) *Bulkhead {
	if n <= 0 {
		return nil
	}
	return &Bulkhead{slots: make(chan struct{}, n)}
}

// Acquire blocks until a slot is free or ctx is done.
func (b *Bulkhead) Acquire(ctx context.Context) error {
	if b == nil {
		return nil
	}
	select {
	case b.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release frees a slot acquired with Acquire.
func (b *Bulkhead) Release() {
	if b == nil {
		return
	}
	<-b.slots
}
