package gp

// This file implements the per-generation node arena the evolution engine
// breeds into. Variation (clone, crossover grafts, mutation regrowth)
// dominated the engine's allocation profile: every child tree used to be
// built from individually heap-allocated Nodes that died one generation
// later. Trees bred for generation g+1 only ever reference (a) fresh nodes
// and (b) copies of subtrees from generation g's population, so their
// lifetime is exactly one generation — the textbook arena case. The engine
// keeps two arenas and ping-pongs: children are bump-allocated into the
// idle arena, the previous generation's arena is reset wholesale, and the
// only tree that outlives a generation — the run's champion — is
// heap-cloned out when it improves.
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
	bi     int // index of the block currently allocated from
	used   int // nodes handed out from blocks[bi]
}

func newNodeArena() *nodeArena { return &nodeArena{} }

// alloc returns a node whose previous contents are undefined; callers
// must assign every field.
func (a *nodeArena) alloc() *Node {
	for {
		if a.bi < len(a.blocks) {
			if blk := a.blocks[a.bi]; a.used < len(blk) {
				n := &blk[a.used]
				a.used++
				return n
			}
			a.bi++
			a.used = 0
			continue
		}
		a.blocks = append(a.blocks, make([]Node, arenaBlockNodes))
	}
}

// reset recycles every block. Trees previously allocated from the arena
// become invalid; the engine resets only after the generation that
// referenced them has been scored and replaced.
func (a *nodeArena) reset() {
	a.bi, a.used = 0, 0
}

// cloneInto deep-copies tree n into arena a. A nil arena falls back to
// heap cloning, which keeps the variation operators usable standalone
// (tests construct them without an engine around).
func cloneInto(a *nodeArena, n *Node) *Node {
	if n == nil {
		return nil
	}
	if a == nil {
		return n.Clone()
	}
	nn := a.alloc()
	if n.L == nil && n.R == nil { // leaf fast-path: skip two nil-recursions
		*nn = Node{Op: n.Op, Const: n.Const, Var: n.Var}
		return nn
	}
	*nn = Node{Op: n.Op, Const: n.Const, Var: n.Var, L: cloneInto(a, n.L), R: cloneInto(a, n.R)}
	return nn
}
