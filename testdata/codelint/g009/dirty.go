// Package g009 is a codelint fixture: lock discipline (rule G009). Bump
// shows the sanctioned lock/defer-unlock critical section and must stay
// clean.
package g009

import (
	"sync"

	"repro/internal/implic"
)

// Counter pairs a mutex with the state it guards.
type Counter struct {
	mu sync.Mutex
	n  int
}

// Leak locks and never unlocks: finding.
func (c *Counter) Leak() int {
	c.mu.Lock() // finding: no matching Unlock in this function
	return c.n
}

// Stall blocks on a channel while holding the lock: finding.
func (c *Counter) Stall(ch chan int) {
	c.mu.Lock()
	ch <- c.n // finding: channel send under c.mu
	c.mu.Unlock()
}

// Engine runs engine work while holding the lock: finding.
func (c *Counter) Engine() implic.Lit {
	c.mu.Lock()
	defer c.mu.Unlock()
	return implic.MkLit(c.n, true) // finding: engine call under c.mu
}

// Bump is the sanctioned shape: clean.
func (c *Counter) Bump() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return c.n
}
