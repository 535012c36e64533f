package gp

import "math/rand"

// generator builds random trees for initialisation and mutation. When
// arena is set, every node is bump-allocated from it (the engine points
// arena at the generation under construction); a nil arena heap-allocates,
// which keeps the generator usable standalone.
type generator struct {
	rng      *rand.Rand
	numVars  int
	funcs    []Op
	constMin float64
	constMax float64
	arena    *nodeArena
}

// node materialises n in the generator's arena (or on the heap).
func (g *generator) node(n Node) *Node {
	var nn *Node
	if g.arena != nil {
		nn = g.arena.alloc()
	} else {
		nn = new(Node)
	}
	*nn = n
	return nn
}

// randTerminal returns a variable or ephemeral constant leaf.
func (g *generator) randTerminal() *Node {
	// Bias toward variables: constants alone cannot explain varying data.
	if g.numVars > 0 && g.rng.Float64() < 0.7 {
		return g.node(Node{Op: OpVar, Var: g.rng.Intn(g.numVars)})
	}
	c := g.constMin + g.rng.Float64()*(g.constMax-g.constMin)
	return g.node(Node{Op: OpConst, Const: c})
}

func (g *generator) randFunction() Op {
	return g.funcs[g.rng.Intn(len(g.funcs))]
}

// grow builds a tree where any node may become a terminal early, yielding
// irregular shapes.
func (g *generator) grow(depth int) *Node {
	if depth <= 1 || g.rng.Float64() < 0.3 {
		return g.randTerminal()
	}
	op := g.randFunction()
	if op.Arity() == 1 {
		return g.node(Node{Op: op, L: g.grow(depth - 1)})
	}
	return g.node(Node{Op: op, L: g.grow(depth - 1), R: g.grow(depth - 1)})
}

// full builds a tree where every branch reaches the target depth.
func (g *generator) full(depth int) *Node {
	if depth <= 1 {
		return g.randTerminal()
	}
	op := g.randFunction()
	if op.Arity() == 1 {
		return g.node(Node{Op: op, L: g.full(depth - 1)})
	}
	return g.node(Node{Op: op, L: g.full(depth - 1), R: g.full(depth - 1)})
}

// ramp draws initial-population programs lo, lo+1, … into trees: ramped
// half-and-half, the standard Koza initialisation gplearn uses. Program i
// has depth 2 + i%(maxDepth-1) and is grown when i is even, full when
// odd, so its shape depends only on i and every prefix of the population
// is a balanced sample of depths and methods.
func (g *generator) ramp(trees []*Node, lo, maxDepth int) {
	for j := range trees {
		i := lo + j
		depth := 2 + i%(maxDepth-1)
		if i%2 == 0 {
			trees[j] = g.grow(depth)
		} else {
			trees[j] = g.full(depth)
		}
	}
}
