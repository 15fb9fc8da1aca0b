//go:build race

package repro

// The race detector slows the engines several times over between two
// context checks, so the cancellation contract's latency grows with it.
func init() { cancelBound *= 5 }
