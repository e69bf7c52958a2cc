package warehouse

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// stillBlocked requires done to stay open for a short while: the negative
// half of "returns only after". It can miss a bug on a slow box, never fail
// a correct worker.
func stillBlocked(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
		t.Fatalf("%s returned early", what)
	case <-time.After(20 * time.Millisecond):
	}
}

// returns requires done to close.
func returns(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// async runs fn on its own goroutine and closes the channel when it returns.
func async(fn func()) <-chan struct{} {
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	return done
}

// gatedWorker is a worker whose jobs record themselves, announce their start
// on started and then wait for one token on gate.
type gatedWorker struct {
	*worker[int]
	mu      sync.Mutex
	ran     []int
	started chan int
	gate    chan struct{}
}

func newGatedWorker() *gatedWorker {
	g := &gatedWorker{started: make(chan int, 64), gate: make(chan struct{}, 64)}
	g.worker = newWorker(func(job int) {
		g.mu.Lock()
		g.ran = append(g.ran, job)
		g.mu.Unlock()
		g.started <- job
		<-g.gate
	})
	return g
}

func (g *gatedWorker) jobsRun() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Clone(g.ran)
}

func (g *gatedWorker) release(n int) {
	for i := 0; i < n; i++ {
		g.gate <- struct{}{}
	}
}

func TestWorker(t *testing.T) {
	t.Run("dedupe", func(t *testing.T) {
		g := newGatedWorker()
		for _, job := range []int{1, 1, 2, 1, 2} {
			g.enqueue(job)
		}
		if d := g.depth(); d != 2 {
			t.Fatalf("depth after enqueueing 1,1,2,1,2 = %d, want 2", d)
		}
		g.start()
		if job := <-g.started; job != 1 {
			t.Fatalf("first job = %d, want 1", job)
		}
		// Job 1 is running, no longer waiting: it may be queued again.
		g.enqueue(1)
		g.enqueue(1)
		if d := g.depth(); d != 2 {
			t.Fatalf("depth with 1 running and 2,1 queued = %d, want 2", d)
		}
		g.release(3)
		g.close()
		if got := g.jobsRun(); !slices.Equal(got, []int{1, 2, 1}) {
			t.Fatalf("jobs run = %v, want [1 2 1]", got)
		}
	})

	t.Run("drain waits for the job in flight", func(t *testing.T) {
		g := newGatedWorker()
		g.start()
		defer g.close()
		g.drain() // idle: returns at once
		g.enqueue(1)
		<-g.started
		if d := g.depth(); d != 0 {
			t.Fatalf("depth with the only job in flight = %d, want 0", d)
		}
		drained := async(g.drain)
		stillBlocked(t, drained, "drain with a job in flight")
		g.release(1)
		returns(t, drained, "drain")
	})

	t.Run("close runs everything queued", func(t *testing.T) {
		g := newGatedWorker()
		want := []int{5, 4, 3, 2, 1}
		for _, job := range want {
			g.enqueue(job)
		}
		g.release(len(want))
		g.start()
		g.close()
		g.close() // idempotent
		if got := g.jobsRun(); !slices.Equal(got, want) {
			t.Fatalf("jobs run by close = %v, want %v in queue order", got, want)
		}
		g.enqueue(9)
		if d := g.depth(); d != 0 {
			t.Fatalf("enqueue after close queued a job (depth %d)", d)
		}
		g.drain() // nothing can be pending: returns
	})

	t.Run("abort drops the queue and waits for the job in flight", func(t *testing.T) {
		g := newGatedWorker()
		g.start()
		g.enqueue(1)
		<-g.started
		g.enqueue(2)
		g.enqueue(3)
		aborted := async(g.abort)
		stillBlocked(t, aborted, "abort with a job in flight")
		g.release(1)
		returns(t, aborted, "abort")
		if got := g.jobsRun(); !slices.Equal(got, []int{1}) {
			t.Fatalf("jobs run = %v, want only the one in flight at the abort", got)
		}
		g.abort() // idempotent
		g.enqueue(4)
		if d := g.depth(); d != 2 {
			t.Fatalf("depth after abort = %d, want the 2 dropped jobs and nothing new", d)
		}
		g.drain() // an aborted worker never drains: must not block
	})

	t.Run("throttle", func(t *testing.T) {
		g := newGatedWorker()
		g.throttle(0) // empty queue: returns at once
		for job := 1; job <= 3; job++ {
			g.enqueue(job)
		}
		g.throttle(3) // at the bound, not over it
		over := async(func() { g.throttle(1) })
		stillBlocked(t, over, "throttle(1) with 3 queued")
		g.start()
		<-g.started // job 1 left the queue: 2 queued, still over
		stillBlocked(t, over, "throttle(1) with 2 queued")
		g.release(1)
		<-g.started // job 2 left the queue: 1 queued
		returns(t, over, "throttle(1) with 1 queued")

		// close and abort each release a producer that is still over the bound.
		overAtClose := async(func() { g.throttle(0) })
		stillBlocked(t, overAtClose, "throttle(0) with 1 queued")
		closed := async(g.close)
		returns(t, overAtClose, "throttle at close")
		g.release(2)
		returns(t, closed, "close")

		h := newGatedWorker()
		h.enqueue(1)
		overAtAbort := async(func() { h.throttle(0) })
		stillBlocked(t, overAtAbort, "throttle(0) on an unstarted worker")
		h.abort()
		returns(t, overAtAbort, "throttle at abort")
	})
}
