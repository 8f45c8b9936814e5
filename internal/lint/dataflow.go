package lint

// A generic forward-dataflow solver over the CFGs built in cfg.go. Each
// path-sensitive rule supplies its lattice as a Problem implementation;
// the solver computes a fixpoint of block entry states, and rules then
// replay Transfer over the solved states with reporting switched on, so
// every diagnostic is emitted exactly once from a consistent state.

import "go/ast"

// Problem is one rule's lattice plus transfer functions. State values are
// treated as immutable: Transfer and Refine must return a fresh value
// (copy-on-write) rather than mutate their argument, because the solver
// joins and compares states across paths.
type Problem[S any] interface {
	// Entry is the state on function entry.
	Entry() S
	// Transfer flows state through one block node (a simple statement or
	// a control expression).
	Transfer(n ast.Node, s S) S
	// Refine adjusts state along one outgoing edge — the hook that makes
	// the analysis path-sensitive (e.g. "crc matched" on a true branch).
	Refine(e Edge, s S) S
	// Join merges states where paths meet.
	Join(a, b S) S
	// Equal reports lattice equality, bounding the fixpoint iteration.
	Equal(a, b S) bool
}

// Solution holds the fixpoint: state at block entry and at block exit
// (before edge refinement). Blocks unreachable from Entry have no state.
type Solution[S any] struct {
	CFG *CFG
	In  map[*Block]S
	Out map[*Block]S
}

// Reached reports whether the solver found a path from Entry to blk.
func (sol *Solution[S]) Reached(blk *Block) bool {
	_, ok := sol.In[blk]
	return ok
}

// maxVisitsPerBlock bounds fixpoint iteration. The rule lattices are
// finite (lock modes per mutex chain), so the bound is a backstop against
// a non-monotone Problem bug, not a limit reached in practice.
const maxVisitsPerBlock = 64

// Solve runs the worklist to fixpoint and returns the per-block states.
func Solve[S any](cfg *CFG, p Problem[S]) *Solution[S] {
	sol := &Solution[S]{CFG: cfg, In: map[*Block]S{}, Out: map[*Block]S{}}
	sol.In[cfg.Entry] = p.Entry()

	worklist := []*Block{cfg.Entry}
	queued := map[*Block]bool{cfg.Entry: true}
	visits := map[*Block]int{}
	for len(worklist) > 0 {
		blk := worklist[0]
		worklist = worklist[1:]
		queued[blk] = false
		if visits[blk]++; visits[blk] > maxVisitsPerBlock {
			continue
		}
		s := sol.In[blk]
		for _, n := range blk.Nodes {
			s = p.Transfer(n, s)
		}
		sol.Out[blk] = s
		for _, e := range blk.Succs {
			next := p.Refine(e, s)
			if have, ok := sol.In[e.To]; ok {
				joined := p.Join(have, next)
				if p.Equal(joined, have) {
					continue
				}
				sol.In[e.To] = joined
			} else {
				sol.In[e.To] = next
			}
			if !queued[e.To] {
				queued[e.To] = true
				worklist = append(worklist, e.To)
			}
		}
	}
	return sol
}

// Replay re-runs Transfer over every reached block in index order, calling
// visit with each node's entry state first. Rules report during this pass:
// each node is visited exactly once, with its final fixpoint state.
func (sol *Solution[S]) Replay(p Problem[S], visit func(n ast.Node, before S)) {
	for _, blk := range sol.CFG.Blocks {
		s, ok := sol.In[blk]
		if !ok {
			continue
		}
		for _, n := range blk.Nodes {
			visit(n, s)
			s = p.Transfer(n, s)
		}
	}
}
