// Package g003 is a codelint fixture: engine entry points that drop or
// shadow their context.Context (rule G003). Compat shows the sanctioned
// single-return wrapper shape and must stay clean.
package g003

import "context"

// Search receives a context and never uses it: finding.
func Search(ctx context.Context, n int) int {
	return n * 2
}

// Run receives a context but spawns a fresh root, severing
// cancellation: findings (dropped parameter and fresh root).
func Run(ctx context.Context, n int) int {
	return step(context.Background(), n)
}

// Launch builds a root context outside the wrapper shape: finding.
func Launch(n int) int {
	c := context.Background()
	return step(c, n)
}

// Compat is the sanctioned compat wrapper: clean.
func Compat(n int) int {
	return step(context.Background(), n)
}

// step consumes its context properly: clean.
func step(ctx context.Context, n int) int {
	select {
	case <-ctx.Done():
		return 0
	default:
		return n
	}
}

// Handler returns a run closure that receives a context and never uses
// it, the way a serve endpoint can drop its request deadline: finding
// on the literal.
func Handler(n int) func(context.Context) int {
	return func(ctx context.Context) int {
		return n * 3
	}
}
