// Package g008 is a codelint fixture: goroutine discipline (rule G008).
// Joined shows the sanctioned worker shape — joined and cancellable —
// and must stay clean.
package g008

import (
	"context"
	"sync"
)

// Fire spawns a goroutine nothing ever joins: finding.
func Fire(sink chan<- int, n int) {
	go func() { // finding: never joined
		sink <- n * 2
	}()
}

// Ignore spawns a worker that never observes the context in scope:
// finding.
func Ignore(ctx context.Context, ch chan int) int {
	if ctx.Err() != nil {
		return 0
	}
	go func() { // finding: ctx in scope but unobserved
		ch <- 1
	}()
	return <-ch
}

// Joined is the sanctioned worker shape: clean.
func Joined(ctx context.Context, vals []int) []int {
	out := make([]int, len(vals))
	var wg sync.WaitGroup
	for i := range vals {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if ctx.Err() != nil {
				return
			}
			out[w] = vals[w] * 2
		}(i)
	}
	wg.Wait()
	return out
}

// Vetted is the constructor shape the goroutineAllowlist covers: the
// spawn calls Done on a WaitGroup some other method Waits on, so no
// join is visible here. The allowlist entry keeps it clean while its
// unlisted neighbors above still fire.
func Vetted(wg *sync.WaitGroup, sink chan<- int) {
	wg.Add(1)
	go func() { // allowlisted: joined by the caller's Close-analog
		defer wg.Done()
		sink <- 1
	}()
}
