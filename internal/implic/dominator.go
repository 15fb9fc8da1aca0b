package implic

// Dominator analysis over the fanout graph. A virtual sink node is fed
// by every primary output; gate d dominates signal s when every
// structural path from s to any primary output passes through d. The
// classic use in test generation: a fault on s can only be observed if
// it propagates through every dominator of s, so a dominator whose side
// inputs are forced to the controlling value blocks the fault for good.
//
// The tree is computed with the Cooper–Harvey–Kennedy iterative
// algorithm on the edge-reversed graph (sink -> outputs -> fanins),
// which needs no sophisticated data structures and converges in a
// couple of passes on netlist-shaped DAGs.

// computeDominators fills e.idom and e.rpo. Nodes with no path to a
// primary output get rpo -1 and no dominator.
func (e *Engine) computeDominators() {
	c := e.c
	n := c.NumGates()
	sink := n
	e.sink = sink

	// Postorder DFS from the sink over reversed edges.
	succs := func(u int) []int {
		if u == sink {
			return c.Outputs()
		}
		return c.Fanin(u)
	}
	type frame struct{ node, idx int }
	state := make([]uint8, n+1)
	post := make([]int, 0, n+1)
	stack := []frame{{sink, 0}}
	state[sink] = 1
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		ss := succs(f.node)
		if f.idx < len(ss) {
			nx := ss[f.idx]
			f.idx++
			if state[nx] == 0 {
				state[nx] = 1
				stack = append(stack, frame{nx, 0})
			}
			continue
		}
		post = append(post, f.node)
		stack = stack[:len(stack)-1]
	}

	rpo := make([]int, n+1)
	for i := range rpo {
		rpo[i] = -1
	}
	order := make([]int, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		rpo[post[i]] = len(order)
		order = append(order, post[i])
	}

	// Predecessors in the reversed graph are the original consumers
	// (deduplicated; a multi-pin consumer appears once) plus the sink
	// for primary outputs.
	preds := make([][]int, n)
	for u := 0; u < n; u++ {
		var ps []int
		for _, g := range c.Fanout(u) {
			dup := false
			for _, p := range ps {
				if p == g {
					dup = true
					break
				}
			}
			if !dup {
				ps = append(ps, g)
			}
		}
		if c.IsOutput(u) {
			ps = append(ps, sink)
		}
		preds[u] = ps
	}

	idom := make([]int, n+1)
	for i := range idom {
		idom[i] = -1
	}
	idom[sink] = sink
	intersect := func(a, b int) int {
		for a != b {
			if e.stopped() {
				return a
			}
			for rpo[a] > rpo[b] {
				a = idom[a]
			}
			for rpo[b] > rpo[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		if e.stopped() {
			break
		}
		changed = false
		for _, b := range order[1:] {
			newIdom := -1
			for _, p := range preds[b] {
				if idom[p] < 0 {
					continue
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom >= 0 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	e.idom = idom
	e.rpo = rpo
}

// Observable reports whether the signal has a structural path to a
// primary output (a primary output observes itself).
func (e *Engine) Observable(sig int) bool { return e.rpo[sig] >= 0 }

// Dominator returns the immediate dominator gate of the signal. ok is
// false when the signal is dead, or when no single gate dominates it
// (it is a primary output, or its fanout reaches the outputs along
// disjoint paths).
func (e *Engine) Dominator(sig int) (dom int, ok bool) {
	if e.rpo[sig] < 0 {
		return -1, false
	}
	d := e.idom[sig]
	if d < 0 || d == e.sink {
		return -1, false
	}
	return d, true
}

// Dominators returns the dominator chain of the signal from the nearest
// dominator outward, excluding the virtual sink. Dead signals yield
// nil.
func (e *Engine) Dominators(sig int) []int {
	if e.rpo[sig] < 0 {
		return nil
	}
	var out []int
	for d := e.idom[sig]; d >= 0 && d != e.sink; d = e.idom[d] {
		out = append(out, d)
	}
	return out
}
