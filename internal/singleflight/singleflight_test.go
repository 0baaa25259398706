package singleflight

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoReturnsResult(t *testing.T) {
	var g Group
	v, err, shared := g.Do("k", func() (any, error) { return 42, nil })
	if v != 42 || err != nil || shared {
		t.Errorf("Do = %v, %v, %v", v, err, shared)
	}
}

func TestDoReturnsError(t *testing.T) {
	var g Group
	want := errors.New("boom")
	_, err, _ := g.Do("k", func() (any, error) { return nil, want })
	if err != want {
		t.Errorf("err = %v", err)
	}
}

func TestConcurrentCallsShareOneExecution(t *testing.T) {
	var g Group
	var execs atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	const n = 50
	var wg sync.WaitGroup
	results := make([]any, n)
	sharedCount := atomic.Int64{}

	// First caller blocks inside fn until released, guaranteeing the
	// other callers arrive while it is in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], _, _ = g.Do("k", func() (any, error) {
			close(started)
			execs.Add(1)
			<-release
			return "shared", nil
		})
	}()
	<-started
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, shared := g.Do("k", func() (any, error) {
				execs.Add(1)
				return "shared", nil
			})
			results[i] = v
			if shared {
				sharedCount.Add(1)
			}
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the waiters pile up
	close(release)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Errorf("fn executed %d times, want 1", got)
	}
	for i, v := range results {
		if v != "shared" {
			t.Errorf("results[%d] = %v", i, v)
		}
	}
	if sharedCount.Load() != n-1 {
		t.Errorf("shared callers = %d, want %d", sharedCount.Load(), n-1)
	}
}

func TestKeyForgottenAfterCompletion(t *testing.T) {
	var g Group
	var execs atomic.Int64
	for i := 0; i < 3; i++ {
		g.Do("k", func() (any, error) { execs.Add(1); return nil, nil })
	}
	if got := execs.Load(); got != 3 {
		t.Errorf("sequential calls executed %d times, want 3", got)
	}
}

func TestDistinctKeysDoNotShare(t *testing.T) {
	var g Group
	block := make(chan struct{})
	done := make(chan struct{})
	go func() {
		g.Do("a", func() (any, error) { <-block; return nil, nil })
		close(done)
	}()
	// A different key must not wait for "a".
	v, _, _ := g.Do("b", func() (any, error) { return "b", nil })
	if v != "b" {
		t.Errorf("Do(b) = %v", v)
	}
	close(block)
	<-done
}

func TestPanicPropagatesAndReleasesWaiters(t *testing.T) {
	var g Group
	entered := make(chan struct{})
	type waitResult struct {
		err    error
		shared bool
	}
	waiterDone := make(chan waitResult, 1)
	panicked := make(chan any, 1)

	go func() {
		defer func() { panicked <- recover() }()
		g.Do("k", func() (any, error) {
			close(entered)
			time.Sleep(20 * time.Millisecond)
			panic("boom")
		})
	}()
	<-entered
	go func() {
		_, err, shared := g.Do("k", func() (any, error) { return nil, nil })
		waiterDone <- waitResult{err, shared}
	}()

	if r := <-panicked; r != "boom" {
		t.Errorf("recovered %v, want boom", r)
	}
	select {
	case res := <-waiterDone:
		// The waiter either joined the panicked call (and must see its
		// error) or arrived after the key was forgotten and ran its own
		// fn; both are live outcomes — the point is no deadlock.
		if res.shared && res.err == nil {
			t.Error("waiter that joined a panicked call must see an error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter deadlocked after panic")
	}
}

func TestInFlight(t *testing.T) {
	var g Group
	if g.InFlight("k") {
		t.Fatal("InFlight on a fresh group")
	}
	g.Do("k", func() (any, error) {
		if !g.InFlight("k") {
			t.Error("InFlight false while the call executes")
		}
		if g.InFlight("other") {
			t.Error("InFlight true for a key with no call")
		}
		return nil, nil
	})
	if g.InFlight("k") {
		t.Error("InFlight true after the call returned")
	}
}
