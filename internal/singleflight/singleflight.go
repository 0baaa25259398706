// Package singleflight suppresses duplicate concurrent calls: when N
// goroutines ask for the same key at once, one executes the function and
// the other N−1 block and share its result. The live proxy uses it for
// cache admission, so a thundering herd of first requests for one object
// produces exactly one origin fetch.
//
// It is a minimal, dependency-free implementation of the pattern from
// golang.org/x/sync/singleflight.
package singleflight

import (
	"fmt"
	"sync"
)

// call is an in-flight or completed Do invocation.
type call struct {
	wg  sync.WaitGroup
	val any
	err error
}

// Group deduplicates concurrent calls by key. The zero value is ready to
// use.
type Group struct {
	mu    sync.Mutex
	calls map[string]*call
}

// Do executes fn and returns its result, ensuring that at any moment at
// most one execution per key is in flight. Concurrent callers with the
// same key wait for the in-flight execution and receive its result;
// shared reports whether the result was produced by another caller.
// Once fn returns, the key is forgotten, so a later Do runs fn again.
func (g *Group) Do(key string, fn func() (any, error)) (v any, err error, shared bool) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*call)
	}
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err, true
	}
	c := &call{}
	c.wg.Add(1)
	g.calls[key] = c
	g.mu.Unlock()

	func() {
		defer func() {
			if r := recover(); r != nil {
				// Waiters observe the panic as an error; the panic
				// itself propagates to the executing caller.
				c.err = fmt.Errorf("singleflight: call panicked: %v", r)
				g.forget(key, c)
				panic(r)
			}
			g.forget(key, c)
		}()
		c.val, c.err = fn()
	}()
	return c.val, c.err, false
}

// InFlight reports whether a Do call for key is executing.
func (g *Group) InFlight(key string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.calls[key]
	return ok
}

// forget releases the key and wakes the waiters.
func (g *Group) forget(key string, c *call) {
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	c.wg.Done()
}
