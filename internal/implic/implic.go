// Package implic is the static implication engine over a gate-level
// netlist: the reasoning layer between the purely structural lint passes
// and the search-based tools (PODEM, the TPI planners).
//
// The engine computes three kinds of static knowledge, none of which
// applies a single simulation pattern:
//
//   - direct implications: assigning a line to 0 or 1 and propagating
//     gate semantics forward (controlling values) and backward
//     (justification) to a fixpoint;
//   - indirect implications, learned SOCRATES-style: whenever
//     propagating a => b, the contrapositive !b => !a is recorded and
//     replayed in later propagations, which discovers implications that
//     no single forward/backward pass can see (e.g. z=1 => a=1 for
//     z = OR(AND(a,b), AND(a,c)));
//   - structural dominators: for every line, the gates that every path
//     to a primary output must pass through (computed over the fanout
//     graph against a virtual sink fed by all primary outputs).
//
// On top of those, redundancy.go proves stuck-at faults untestable
// without invoking ATPG, and Collapse folds that proof plus
// equivalence/dominance collapsing into a reduced fault universe.
//
// A propagation that conflicts proves the seed infeasible, so the line
// is constant at the opposite value; constants are re-seeded into every
// later propagation, letting constant knowledge compound across
// learning rounds.
package implic

import (
	"context"
	"sort"

	"repro/internal/netlist"
)

// Lit encodes one (signal, value) assignment as 2*signal+value.
type Lit int32

// MkLit builds the literal for signal sig carrying value val.
func MkLit(sig int, val bool) Lit {
	l := Lit(sig) << 1
	if val {
		l |= 1
	}
	return l
}

// Signal returns the literal's signal ID.
func (l Lit) Signal() int { return int(l >> 1) }

// Val returns the literal's value.
func (l Lit) Val() bool { return l&1 == 1 }

// Neg returns the literal with the value complemented.
func (l Lit) Neg() Lit { return l ^ 1 }

// Options configures the engine build.
type Options struct {
	// LearnRounds bounds the SOCRATES contrapositive learning
	// iterations (0 = default 2, negative = direct implications only).
	// Each round re-propagates every literal with the implications
	// learned so far, so later rounds can only add knowledge.
	LearnRounds int
}

// Engine holds the implication database, the proven constants and the
// dominator tree of one circuit. Build it once with New; all queries
// are read-only afterwards except the lazily-computed redundancy pass.
type Engine struct {
	c       *netlist.Circuit
	imp     [][]Lit // imp[l]: literals implied by l (sorted, l excluded)
	learned [][]Lit // contrapositive edges replayed during propagation
	nLearn  int
	consts  []int8 // proven constant value per signal (-1 = none)
	feas    []bool // per literal: assigning it does not conflict

	// dominators (dominator.go); sink == NumGates() is the virtual sink
	idom []int
	rpo  []int // reverse-postorder number per node, -1 = dead
	sink int

	// lazily computed redundancy pass (redundancy.go)
	redundant []RedundantFault

	// propagation scratch
	val     []int8
	touched []int32
	gq      []int32
	inq     []bool

	// build-time cancellation (context.go): ctx is the build context,
	// nil once the build returns, and err the first error it reported.
	ctx context.Context
	err error
}

// New builds the engine: dominators, then LearnRounds+1 implication
// sweeps over every literal with contrapositive learning in between.
// Use NewContext to bound the build by a request deadline.
func New(c *netlist.Circuit, opts Options) *Engine {
	return build(context.Background(), c, opts)
}

// build constructs the engine under ctx: dominators, then the learning
// sweeps. Once ctx is done it stops early and leaves the context's
// error in e.err. It clears e.ctx before returning.
func build(ctx context.Context, c *netlist.Circuit, opts Options) *Engine {
	n := c.NumGates()
	e := &Engine{
		ctx:     ctx,
		c:       c,
		imp:     make([][]Lit, 2*n),
		learned: make([][]Lit, 2*n),
		consts:  make([]int8, n),
		feas:    make([]bool, 2*n),
		val:     make([]int8, n),
		inq:     make([]bool, n),
	}
	for i := range e.consts {
		e.consts[i] = -1
	}
	for i := range e.val {
		e.val[i] = -1
	}
	e.computeDominators()

	rounds := opts.LearnRounds
	if rounds == 0 {
		rounds = 2
	}
	if rounds < 0 {
		rounds = 0
	}
	for iter := 0; e.err == nil; iter++ {
		newConst := e.sweep()
		if iter >= rounds || e.err != nil {
			break
		}
		if !e.learn() && !newConst {
			break
		}
	}
	e.ctx = nil
	return e
}

// Circuit returns the analyzed circuit.
func (e *Engine) Circuit() *netlist.Circuit { return e.c }

// NumLearned returns how many contrapositive implications were learned.
func (e *Engine) NumLearned() int { return e.nLearn }

// NumImplications returns the total size of the implication database
// (implied literals summed over all feasible seed literals).
func (e *Engine) NumImplications() int {
	n := 0
	for _, l := range e.imp {
		n += len(l)
	}
	return n
}

// ConstValue reports whether the signal is proven constant and at which
// value.
func (e *Engine) ConstValue(sig int) (val, ok bool) {
	if v := e.consts[sig]; v >= 0 {
		return v == 1, true
	}
	return false, false
}

// Constants returns the proven-constant signal IDs in ascending order.
func (e *Engine) Constants() []int {
	var out []int
	for sig, v := range e.consts {
		if v >= 0 {
			out = append(out, sig)
		}
	}
	return out
}

// Feasible reports whether assigning the literal is consistent with the
// circuit (false exactly when the signal is constant at the opposite
// value).
func (e *Engine) Feasible(l Lit) bool { return e.feas[l] }

// Implied returns the literals implied by l, sorted by literal value.
// The slice is nil when l is infeasible and must not be modified.
func (e *Engine) Implied(l Lit) []Lit { return e.imp[l] }

// Implies reports whether assigning `from` implies `to`.
func (e *Engine) Implies(from, to Lit) bool {
	list := e.imp[from]
	i := sort.Search(len(list), func(i int) bool { return list[i] >= to })
	return i < len(list) && list[i] == to
}

// sweep recomputes the implied set of every literal under the current
// learned database and constants, and reports whether a new constant was
// proven.
func (e *Engine) sweep() (newConst bool) {
	n := e.c.NumGates()
	for sig := 0; sig < n && e.err == nil; sig++ {
		for v := int8(0); v <= 1; v++ {
			l := MkLit(sig, v == 1)
			if cv := e.consts[sig]; cv >= 0 && cv != v {
				e.feas[l] = false
				e.imp[l] = nil
				continue
			}
			if e.run(l) {
				e.reset()
				e.feas[l] = false
				e.imp[l] = nil
				if e.consts[sig] < 0 {
					e.consts[sig] = 1 - v
					newConst = true
				}
				continue
			}
			e.feas[l] = true
			out := e.imp[l][:0]
			for _, t := range e.touched {
				if int(t) == sig {
					continue
				}
				out = append(out, MkLit(int(t), e.val[t] == 1))
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			e.imp[l] = out
			e.reset()
		}
	}
	return newConst
}

// learn records the contrapositive of every implication not already in
// the database: a => b yields !b => !a. Reports whether anything new was
// learned.
func (e *Engine) learn() bool {
	added := false
	for li, list := range e.imp {
		a := Lit(li)
		if !e.feas[a] {
			continue
		}
		for _, b := range list {
			nb, na := b.Neg(), a.Neg()
			if !e.feas[nb] || e.Implies(nb, na) {
				continue
			}
			dup := false
			for _, x := range e.learned[nb] {
				if x == na {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			e.learned[nb] = append(e.learned[nb], na)
			e.nLearn++
			added = true
		}
	}
	return added
}

// run propagates the seed literals plus every known constant to a
// fixpoint, leaving the assignment in e.val (-1 = unassigned), and
// reports whether a conflict arose. Callers must call reset afterwards.
func (e *Engine) run(seeds ...Lit) (conflict bool) {
	var pending []Lit
	assign := func(sig int, v int8) {
		switch e.val[sig] {
		case v:
			return
		case -1:
			e.val[sig] = v
			e.touched = append(e.touched, int32(sig))
			pending = append(pending, MkLit(sig, v == 1))
			if !e.inq[sig] {
				e.inq[sig] = true
				e.gq = append(e.gq, int32(sig))
			}
			for _, g := range e.c.Fanout(sig) {
				if !e.inq[g] {
					e.inq[g] = true
					e.gq = append(e.gq, int32(g))
				}
			}
		default:
			conflict = true
		}
	}
	for sig, cv := range e.consts {
		if cv >= 0 {
			assign(sig, cv)
		}
	}
	for _, s := range seeds {
		v := int8(0)
		if s.Val() {
			v = 1
		}
		assign(s.Signal(), v)
	}
	// Check the build context on the first worklist step and every 1024
	// after: propagation is the hot inner loop of the sweeps, so the
	// check is amortized over steps the way fsim amortizes it over a
	// pattern block. A stopped build leaves the propagation unfinished;
	// the sweep discards it.
	for steps := 0; !conflict && (len(pending) > 0 || len(e.gq) > 0); steps++ {
		if steps&1023 == 0 && e.stopped() {
			break
		}
		if len(pending) > 0 {
			l := pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			for _, t := range e.learned[l] {
				v := int8(0)
				if t.Val() {
					v = 1
				}
				assign(t.Signal(), v)
			}
			continue
		}
		g := int(e.gq[len(e.gq)-1])
		e.gq = e.gq[:len(e.gq)-1]
		e.inq[g] = false
		e.evalGate(g, assign)
	}
	return conflict
}

// reset clears the propagation scratch for the next run.
func (e *Engine) reset() {
	for _, t := range e.touched {
		e.val[t] = -1
	}
	e.touched = e.touched[:0]
	for _, g := range e.gq {
		e.inq[g] = false
	}
	e.gq = e.gq[:0]
}

// evalGate applies the bidirectional gate rules of gate id under the
// current partial assignment:
//
//   - forward: a controlling input (or all inputs known) fixes the
//     output;
//   - backward: the uncontrolled output value fixes every input to the
//     non-controlling value; the controlled output value with exactly
//     one unknown input and no controlling input justifies that input;
//   - XOR/XNOR: all-but-one known pins determine the last, in either
//     direction.
func (e *Engine) evalGate(id int, assign func(int, int8)) {
	g := e.c.Gate(id)
	switch g.Type {
	case netlist.Input:
	case netlist.Buf:
		in := g.Fanin[0]
		if v := e.val[in]; v >= 0 {
			assign(id, v)
		}
		if v := e.val[id]; v >= 0 {
			assign(in, v)
		}
	case netlist.Not:
		in := g.Fanin[0]
		if v := e.val[in]; v >= 0 {
			assign(id, 1-v)
		}
		if v := e.val[id]; v >= 0 {
			assign(in, 1-v)
		}
	case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
		cv := int8(0) // controlling input value
		if g.Type == netlist.Or || g.Type == netlist.Nor {
			cv = 1
		}
		ov := cv // controlled output value
		if g.Type.Inverting() {
			ov = 1 - ov
		}
		unknown, last := 0, -1
		anyCtl := false
		for _, in := range g.Fanin {
			switch e.val[in] {
			case -1:
				unknown++
				last = in
			case cv:
				anyCtl = true
			}
		}
		if anyCtl {
			assign(id, ov)
		} else if unknown == 0 {
			assign(id, 1-ov)
		}
		switch e.val[id] {
		case 1 - ov:
			for _, in := range g.Fanin {
				assign(in, 1-cv)
			}
		case ov:
			if !anyCtl && unknown == 1 {
				assign(last, cv)
			}
		}
	case netlist.Xor, netlist.Xnor:
		unknown, last := 0, -1
		acc := int8(0)
		for _, in := range g.Fanin {
			switch e.val[in] {
			case -1:
				unknown++
				last = in
			case 1:
				acc ^= 1
			}
		}
		inv := int8(0)
		if g.Type == netlist.Xnor {
			inv = 1
		}
		if unknown == 0 {
			assign(id, acc^inv)
		} else if unknown == 1 {
			if v := e.val[id]; v >= 0 {
				assign(last, v^inv^acc)
			}
		}
	}
}

// Stats summarises the engine for reporting.
type Stats struct {
	Gates        int // circuit size
	Learned      int // contrapositive implications learned
	Implications int // total implied literals stored
	Constants    int // lines proven constant
	Dead         int // lines with no structural path to an output
	Redundant    int // stuck-at faults proven untestable
}

// Stats computes the summary (forcing an uncancelled redundancy pass).
func (e *Engine) Stats() Stats {
	s := Stats{
		Gates:        e.c.NumGates(),
		Learned:      e.nLearn,
		Implications: e.NumImplications(),
		Constants:    len(e.Constants()),
		Redundant:    len(e.RedundantFaults()),
	}
	for sig := 0; sig < e.c.NumGates(); sig++ {
		if !e.Observable(sig) {
			s.Dead++
		}
	}
	return s
}
