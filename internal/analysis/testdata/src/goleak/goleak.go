// Package goleak is the golden fixture for the goleak analyzer: one
// goroutine per bounding idiom the serve tier uses (context, done channel,
// awaited WaitGroup, same-package named callee), the unbounded spawns the
// analyzer must flag, and the statement-scoped escape proving suppression
// never spills to a neighbor.
package goleak

import (
	"context"
	"sync"
)

// leak spawns a goroutine with no cancellation path at all.
func leak() {
	go func() { // want "not provably bounded"
		for {
		}
	}()
}

// ctxBound is the context idiom: the body references a Context.
func ctxBound(ctx context.Context, out chan<- int) {
	go func() {
		select {
		case out <- 1:
		case <-ctx.Done():
		}
	}()
}

// doneBound is the done-channel idiom: select on a struct{} stop channel.
func doneBound(stop chan struct{}) {
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
}

// wgBound is the fan-out idiom: Done inside, Wait in the spawner.
func wgBound(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// runner loops on a struct{} channel; named spawns resolve to it.
type runner struct{ stop chan struct{} }

func (r *runner) run() {
	for {
		select {
		case <-r.stop:
			return
		}
	}
}

// namedBound is the `go b.run()` idiom: the callee's body is checked.
func namedBound(r *runner) {
	go r.run()
}

// leakNamed spawns a same-package function that never terminates.
func spin() {
	for {
	}
}

func leakNamed() {
	go spin() // want "not provably bounded"
}

// leakLine mixes one escaped and one flagged spawn in a single function —
// the statement-scoped escape covers exactly one go statement.
func leakLine() {
	//pythia:goleak-ok fixture: statement-scoped escape
	go func() { select {} }()
	go func() { select {} }() // want "not provably bounded"
}
