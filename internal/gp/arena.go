package gp

// This file implements the per-generation node arena the evolution engine
// breeds into, and spliceCopy, the one copy each bred child costs. Every
// child tree used to be built from heap-allocated Nodes that died one
// generation later. Trees bred for generation g+1 only ever reference (a)
// fresh nodes and (b) copies of subtrees from generation g's population,
// so their lifetime is exactly one generation — the textbook arena case.
// The engine keeps two arenas and ping-pongs: children are bump-allocated
// into the idle arena, the previous generation's arena is reset
// wholesale, and the only tree that outlives a generation — the run's
// champion — is heap-cloned out when it improves.
//
// Allocation discipline: every alloc site fully assigns the node
// (*n = Node{...}), so reset() can recycle blocks without zeroing them —
// across generations, and across runs too, since an island keeps its
// arenas in islandPool between runs.

// arenaBlockNodes is the node count per arena block. Blocks are recycled
// across generations, so the size only bounds slack, not churn.
const arenaBlockNodes = 4096

// nodeArena bump-allocates Nodes from recycled fixed-size blocks. Not
// safe for concurrent use; each breeding loop owns its arenas.
type nodeArena struct {
	blocks [][]Node
	next   int    // index of the block to allocate from once free runs out
	free   []Node // the unallocated tail of the current block
}

func newNodeArena() *nodeArena { return &nodeArena{} }

// alloc returns a node whose previous contents are undefined; callers
// must assign every field.
func (a *nodeArena) alloc() (n *Node) {
	if len(a.free) == 0 {
		a.nextBlock()
	}
	n, a.free = &a.free[0], a.free[1:]
	return n
}

// nextBlock moves to the next block, adding one if all are in use. It
// stays out of line, so inlining alloc inlines no allocation.
//
//go:noinline
func (a *nodeArena) nextBlock() {
	if a.next == len(a.blocks) {
		a.blocks = append(a.blocks, make([]Node, arenaBlockNodes))
	}
	a.free = a.blocks[a.next]
	a.next++
}

// reset recycles every block. Trees previously allocated from the arena
// become invalid; the engine resets only after the generation that
// referenced them has been scored and replaced.
func (a *nodeArena) reset() {
	a.next, a.free = 0, nil
}

// splicer is one spliceCopy pass: next is the next source node's preorder
// index, at the one still to replace (-1 once done).
type splicer struct {
	ar         *nodeArena
	next, at   int
	graft      *Node
	graftDepth int
}

// copyInto copies tree n into ar, returning the copy and its depth.
func copyInto(ar *nodeArena, n *Node) (*Node, int) { return spliceCopy(ar, n, -1, nil, 0) }

// spliceCopy copies src into ar in one preorder pass and returns the copy
// and its depth. The subtree at preorder index at (none if at < 0) is not
// copied: graft, already in ar and graftDepth deep, takes its place.
func spliceCopy(ar *nodeArena, src *Node, at int, graft *Node, graftDepth int) (*Node, int) {
	s := splicer{ar: ar, at: at, graft: graft, graftDepth: graftDepth}
	return s.copy(src)
}

//dplint:hotpath gp-breed
func (s *splicer) copy(n *Node) (*Node, int) {
	if s.next == s.at {
		s.at = -1
		return s.graft, s.graftDepth
	}
	s.next++
	nn := s.ar.alloc()
	var l, r *Node
	var dl, dr int
	if n.L != nil {
		l, dl = s.copy(n.L)
	}
	if n.R != nil {
		r, dr = s.copy(n.R)
	}
	*nn = Node{Op: n.Op, Const: n.Const, Var: n.Var, L: l, R: r}
	return nn, 1 + max(dl, dr)
}
