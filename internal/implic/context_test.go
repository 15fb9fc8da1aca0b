package implic

import (
	"context"
	"testing"
)

// TestNewContextMatchesNew: threading a live context through the build
// must not change what is learned.
func TestNewContextMatchesNew(t *testing.T) {
	c, z, a := indirectCircuit()
	plain := New(c, Options{})
	ctxed, err := NewContext(context.Background(), c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ctxed.Implies(MkLit(z, true), MkLit(a, true)) {
		t.Error("context-built engine lost the learned implication z=1 => a=1")
	}
	if plain.NumImplications() != ctxed.NumImplications() || plain.NumLearned() != ctxed.NumLearned() {
		t.Errorf("context-built engine diverged: %d/%d implications, %d/%d learned",
			ctxed.NumImplications(), plain.NumImplications(), ctxed.NumLearned(), plain.NumLearned())
	}
}

// TestQueriesAfterCanceledContextBuild: the build context is cleared
// once the database is built, so canceling it afterwards must not
// poison later queries (which may lazily run the propagation engine).
func TestQueriesAfterCanceledContextBuild(t *testing.T) {
	c, z, a := indirectCircuit()
	ctx, cancel := context.WithCancel(context.Background())
	e, err := NewContext(ctx, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if !e.Implies(MkLit(z, true), MkLit(a, true)) {
		t.Error("query failed after the build context was canceled")
	}
	// The lazy redundancy analysis re-runs the propagation engine; it
	// must not observe the dead build context.
	_ = e.RedundantFaults()
}
