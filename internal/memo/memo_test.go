package memo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// result is one Do outcome.
type result struct {
	v   int
	hit bool
	err error
}

// gate is a call that reports its start on entered and blocks until
// release is closed, then answers from its script in order.
type gate struct {
	entered chan string
	release chan struct{}

	mu      sync.Mutex
	answers []result
	calls   int
}

func newGate(answers ...result) *gate {
	return &gate{entered: make(chan string, 8), release: make(chan struct{}), answers: answers}
}

func (g *gate) call(key string) (int, error) {
	g.mu.Lock()
	a := g.answers[g.calls]
	g.calls++
	g.mu.Unlock()
	g.entered <- key
	<-g.release
	return a.v, a.err
}

func (g *gate) count() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.calls
}

// waitingCtx closes waiting when a waiter selects on its Done channel,
// so a test knows the waiter is parked on the owner's call.
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func newWaitingCtx(ctx context.Context) *waitingCtx {
	return &waitingCtx{Context: ctx, waiting: make(chan struct{})}
}

func (w *waitingCtx) Done() <-chan struct{} {
	w.once.Do(func() { close(w.waiting) })
	return w.Context.Done()
}

// ownerAndWaiter starts an owner asking key, waits for its call to
// start, then starts a waiter on waiterCtx and waits for it to park.
// Both outcomes arrive on the returned channels once the call returns.
func ownerAndWaiter(t *testing.T, m *Memo[int], g *gate, key string, waiterCtx *waitingCtx) (owner, waiter chan result) {
	t.Helper()
	owner, waiter = make(chan result, 1), make(chan result, 1)
	go func() {
		v, hit, err := m.Do(context.Background(), []byte(key), g.call)
		owner <- result{v, hit, err}
	}()
	if k := <-g.entered; k != key {
		t.Fatalf("call got key %q, want %q", k, key)
	}
	go func() {
		v, hit, err := m.Do(waiterCtx, []byte(key), g.call)
		waiter <- result{v, hit, err}
	}()
	<-waiterCtx.waiting
	return owner, waiter
}

func TestSingleflightHit(t *testing.T) {
	m := New[int](4)
	calls := 0
	fn := func(key string) (int, error) { calls++; return len(key), nil }
	if v, hit, err := m.Do(context.Background(), []byte("abc"), fn); v != 3 || hit || err != nil {
		t.Fatalf("first ask got (%d, %v, %v), want (3, false, nil)", v, hit, err)
	}
	if v, hit, err := m.Do(context.Background(), []byte("abc"), fn); v != 3 || !hit || err != nil {
		t.Fatalf("second ask got (%d, %v, %v), want (3, true, nil)", v, hit, err)
	}
	if calls != 1 || m.Len() != 1 {
		t.Errorf("%d calls, %d stored; want 1 and 1", calls, m.Len())
	}
}

// TestSingleflightWaiterSharesAnswer: a caller asking a key whose call
// is in flight gets the owner's answer, counted as a hit, and the key
// is not stored until the call completes.
func TestSingleflightWaiterSharesAnswer(t *testing.T) {
	m := New[int](4)
	g := newGate(result{v: 42})
	owner, waiter := ownerAndWaiter(t, m, g, "k", newWaitingCtx(context.Background()))
	if n := m.Len(); n != 0 {
		t.Errorf("Len counts %d entries while the call is in flight, want 0", n)
	}
	close(g.release)
	if r := <-owner; r != (result{42, false, nil}) {
		t.Errorf("owner got %+v, want a miss with 42", r)
	}
	if r := <-waiter; r != (result{42, true, nil}) {
		t.Errorf("waiter got %+v, want a hit with 42", r)
	}
	if g.count() != 1 || m.Len() != 1 {
		t.Errorf("%d calls, %d stored; want 1 and 1", g.count(), m.Len())
	}
}

// TestSingleflightFailureNotStored: the owner's error reaches its
// waiter, and the failed key is not stored — the next ask runs the
// call again.
func TestSingleflightFailureNotStored(t *testing.T) {
	boom := errors.New("backend down")
	m := New[int](4)
	g := newGate(result{err: boom}, result{v: 7})
	owner, waiter := ownerAndWaiter(t, m, g, "k", newWaitingCtx(context.Background()))
	close(g.release)
	for name, ch := range map[string]chan result{"owner": owner, "waiter": waiter} {
		if r := <-ch; !errors.Is(r.err, boom) {
			t.Errorf("%s got %+v, want the owner's error", name, r)
		}
	}
	if m.Len() != 0 {
		t.Errorf("a failed call was stored: Len %d", m.Len())
	}
	if v, hit, err := m.Do(context.Background(), []byte("k"), g.call); v != 7 || hit || err != nil {
		t.Errorf("retry got (%d, %v, %v), want (7, false, nil)", v, hit, err)
	}
	if g.count() != 2 {
		t.Errorf("%d calls, want 2: a failed key must run again", g.count())
	}
}

// TestSingleflightWaiterCancel: a waiter whose context ends returns the
// context's error at once, while the owner's answer still lands in the
// memo.
func TestSingleflightWaiterCancel(t *testing.T) {
	m := New[int](4)
	g := newGate(result{v: 9})
	ctx, cancel := context.WithCancel(context.Background())
	owner, waiter := ownerAndWaiter(t, m, g, "k", newWaitingCtx(ctx))
	cancel()
	if r := <-waiter; !errors.Is(r.err, context.Canceled) {
		t.Errorf("waiter got %+v, want context.Canceled", r)
	}
	close(g.release)
	if r := <-owner; r != (result{9, false, nil}) {
		t.Errorf("owner got %+v, want a miss with 9", r)
	}
	if v, hit, err := m.Do(context.Background(), []byte("k"), g.call); v != 9 || !hit || err != nil || g.count() != 1 {
		t.Errorf("after the owner: (%d, %v, %v) with %d calls, want a stored 9 and 1 call", v, hit, err, g.count())
	}
}

// TestSingleflightBurst: G goroutines asking M keys in overlapping
// orders run exactly M calls, every answer is right, and exactly M asks
// are misses. Run under -race.
func TestSingleflightBurst(t *testing.T) {
	const G, M = 16, 200
	m := New[int](8)
	var calls, misses atomic.Int64
	fn := func(key string) (int, error) {
		calls.Add(1)
		var i int
		fmt.Sscanf(key, "key-%d", &i)
		return i * i, nil
	}
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < M; j++ {
				i := (j + g*7) % M
				v, hit, err := m.Do(context.Background(), []byte(fmt.Sprintf("key-%d", i)), fn)
				if err != nil || v != i*i {
					t.Errorf("key-%d got (%d, %v), want %d", i, v, err, i*i)
				}
				if !hit {
					misses.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if calls.Load() != M || misses.Load() != M || m.Len() != M {
		t.Errorf("%d calls, %d misses, %d stored; want %d of each", calls.Load(), misses.Load(), m.Len(), M)
	}
}
