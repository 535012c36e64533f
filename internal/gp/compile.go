package gp

import (
	"bytes"
	"math"
	"sync"
)

// This file implements the compiled evaluation engine that replaces the
// tree-walk interpreter on the fitness hot path. A tree is flattened once
// into postfix bytecode (Compile), then a small stack VM executes each
// instruction over the *whole dataset* at a time: structure-of-arrays
// batch loops over the dataset's columns instead of one recursive
// interpretation per (tree, sample) pair. The VM's scratch (stack slots
// and one flat float slab) lives in a Machine that is reused across
// evaluations, so steady-state scoring performs zero allocations.
//
// Determinism: the compiler's constant folder and the VM's batch loops
// call exactly the scalar kernels Node.Eval uses (ops.go), and every
// sample is computed independently in ascending index order, so the VM's
// output is bit-identical to the interpreter's — including NaN/Inf
// propagation through the protected operators.

// instr is one postfix bytecode instruction. OpConst pushes c, OpVar
// pushes the variable's column (missing variables read as 0), and
// function ops pop their arity and push one result.
type instr struct {
	op Op
	c  float64
	v  int
}

// Program is a compiled expression tree: postfix bytecode plus the
// compile-time facts the VM and the fitness cache need. Programs built by
// the package-level Compile are immutable and safe for concurrent use;
// programs returned by (*Compiler).Compile alias their compiler's scratch
// and are valid only until that compiler's next compilation.
type Program struct {
	code  []instr
	depth int // maximum stack depth at any point of the execution
	key   []byte
}

// Compiler holds reusable compilation scratch: the postfix emit buffer
// (which doubles as the constant folder's stack — folding rewrites the
// buffer tail in place) and the canonical-key buffer. A Compiler's
// buffers grow to the largest tree it has compiled and then stop
// allocating, so steady-state compilation is allocation-free. Not safe
// for concurrent use; pool one per worker.
type Compiler struct {
	code []instr
	key  []byte
	swap []byte
	prog Program
	// nodes counts the source tree's nodes during emit — the same value
	// Node.Size() walks the tree for, picked up for free so the engine's
	// parsimony penalty needs no extra traversal.
	nodes int
}

// NewCompiler returns an empty compiler; buffers grow on first use.
func NewCompiler() *Compiler { return &Compiler{} }

// compilerPool serves compile scratch to the one-shot entry points
// (package-level Compile, the score helpers). The evolution engine does
// not use it: each evaluator owns a compiler outright.
var compilerPool = sync.Pool{New: func() any { return NewCompiler() }}

// Compile flattens the tree to postfix bytecode with compile-time
// constant folding: any subtree whose leaves are all constants collapses
// to a single OpConst instruction, computed with the same protected
// kernels the interpreter uses so the folded value is bit-identical to
// what Eval would have produced. Variables with negative indices (which
// Eval defines to read 0) fold to the constant 0.
//
// The returned Program is immutable and safe for concurrent use. Callers
// compiling in a loop should prefer a Compiler, which reuses its buffers
// instead of allocating per call.
func Compile(root *Node) *Program {
	c := compilerPool.Get().(*Compiler)
	c.compile(root)
	p := &Program{
		code:  append([]instr(nil), c.code...),
		depth: stackDepth(c.code),
		key:   append([]byte(nil), c.key...),
	}
	compilerPool.Put(c)
	return p
}

// Compile compiles root into the compiler's scratch buffers. The returned
// Program aliases those buffers: it is valid until the next Compile call
// on the same Compiler, and it is 100% allocation-free once the buffers
// have grown to the working tree size.
func (c *Compiler) Compile(root *Node) *Program {
	c.compile(root)
	c.prog = Program{code: c.code, depth: stackDepth(c.code), key: c.key}
	return &c.prog
}

// compile emits root into c.code and c.key: all a fitness-cache lookup
// needs. Only a miss goes on to size its stack with stackDepth.
func (c *Compiler) compile(root *Node) {
	c.code = c.code[:0]
	c.key = c.key[:0]
	c.nodes = 0
	c.emit(root)
}

// keyConst appends one folded-constant entry to the canonical key.
func (c *Compiler) keyConst(v float64) {
	bits := math.Float64bits(v)
	c.key = append(c.key, byte(OpConst),
		byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
		byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
}

// commutative reports whether the protected kernel for op is bitwise
// symmetric in its operands — the property that lets the canonical key
// order the operand encodings without changing any score.
func commutative(op Op) bool {
	switch op {
	case OpAdd, OpMul, OpMax, OpMin:
		return true
	}
	return false
}

// swapKey exchanges the adjacent key segments [ls:ms) and [ms:len).
func (c *Compiler) swapKey(ls, ms int) {
	if cap(c.swap) < ms-ls {
		c.swap = make([]byte, 0, ms-ls)
	}
	c.swap = append(c.swap[:0], c.key[ls:ms]...)
	n := copy(c.key[ls:], c.key[ms:])
	copy(c.key[ls+n:], c.swap)
}

// emit appends root's postfix code and canonical key, reporting whether
// the emitted tail is a single folded constant. The key is built
// alongside the code so commutative operands can be ordered
// canonically: a postfix subtree's encoding is one contiguous segment,
// and for Add/Mul/Max/Min — whose kernels are bitwise symmetric — the
// two operand segments are swapped into lexicographic order. Mirrored
// offspring (which crossover mass-produces) then share one cache entry,
// and because the underlying scores are bitwise identical either way,
// serving one from the other changes no result.
func (c *Compiler) emit(n *Node) bool {
	c.nodes++
	switch n.Op {
	case OpConst:
		c.code = append(c.code, instr{op: OpConst, c: n.Const})
		c.keyConst(n.Const)
		return true
	case OpVar:
		if n.Var < 0 {
			c.code = append(c.code, instr{op: OpConst, c: 0})
			c.keyConst(0)
			return true
		}
		c.code = append(c.code, instr{op: OpVar, v: n.Var})
		c.key = append(c.key, byte(OpVar),
			byte(n.Var), byte(n.Var>>8), byte(n.Var>>16), byte(n.Var>>24))
		return false
	case OpAdd, OpSub, OpMul, OpDiv, OpMax, OpMin:
		ls := len(c.key)
		cl := c.emit(n.L)
		ms := len(c.key)
		cr := c.emit(n.R)
		if cl && cr {
			v := apply2(n.Op, c.code[len(c.code)-2].c, c.code[len(c.code)-1].c)
			c.code = c.code[:len(c.code)-1]
			c.code[len(c.code)-1] = instr{op: OpConst, c: v}
			c.key = c.key[:ls]
			c.keyConst(v)
			return true
		}
		c.code = append(c.code, instr{op: n.Op})
		if commutative(n.Op) && bytes.Compare(c.key[ls:ms], c.key[ms:]) > 0 {
			c.swapKey(ls, ms)
		}
		c.key = append(c.key, byte(n.Op))
		return false
	case OpSqrt, OpLog, OpAbs, OpNeg, OpInv, OpSin, OpCos, OpTan:
		ls := len(c.key)
		if c.emit(n.L) {
			v := apply1(n.Op, c.code[len(c.code)-1].c)
			c.code[len(c.code)-1] = instr{op: OpConst, c: v}
			c.key = c.key[:ls]
			c.keyConst(v)
			return true
		}
		c.code = append(c.code, instr{op: n.Op})
		c.key = append(c.key, byte(n.Op))
		return false
	default:
		// Unknown ops evaluate to 0 without touching their children,
		// exactly as Eval's default case does. The node count still has to
		// include the unvisited children to match Node.Size().
		c.nodes += n.Size() - 1
		c.code = append(c.code, instr{op: OpConst, c: 0})
		c.keyConst(0)
		return true
	}
}

// stackDepth returns the most VM stack slots code holds at once.
func stackDepth(code []instr) (depth int) {
	cur := 0
	for _, ins := range code {
		switch ins.op {
		case OpConst, OpVar:
			cur++
		default:
			if ins.op.Arity() == 2 {
				cur--
			}
		}
		if cur > depth {
			depth = cur
		}
	}
	return depth
}

// Key is the canonical structural encoding of the compiled program. Two
// trees share a key exactly when they fold to identical bytecode up to
// commutative operand order (Add/Mul/Max/Min operands are encoded in a
// canonical order, and their kernels are bitwise symmetric, so key-equal
// programs score bitwise identically). That makes it a collision-free
// fitness-cache key: crossover and elitism re-create structurally
// identical and mirrored offspring constantly, and every copy maps to
// the same key.
func (p *Program) Key() string { return string(p.key) }

// Len reports the instruction count (≤ the source tree's node count,
// thanks to folding).
func (p *Program) Len() int { return len(p.code) }

// Batch is the structure-of-arrays view of a Dataset: one contiguous
// column per variable, so the VM streams each instruction over memory
// linearly. Rows narrower than the widest row read 0 for their missing
// variables, matching Eval's out-of-range rule. A Batch is read-only
// while programs are evaluated on it.
type Batch struct {
	n    int
	cols [][]float64
	y    []float64
	// flat backs cols; reset reuses it for the next dataset.
	flat []float64
}

// NewBatch builds the column view of d. The Y slice is referenced, not
// copied.
func NewBatch(d *Dataset) *Batch {
	b := &Batch{}
	b.reset(d)
	return b
}

// reset rebuilds b as the column view of d, reusing b's buffers when they
// are large enough.
func (b *Batch) reset(d *Dataset) {
	n := len(d.X)
	width := 0
	for _, row := range d.X {
		if len(row) > width {
			width = len(row)
		}
	}
	if cap(b.flat) < n*width {
		b.flat = make([]float64, n*width)
	}
	if cap(b.cols) < width {
		b.cols = make([][]float64, width)
	}
	cols := b.cols[:width]
	for v := range cols {
		col := b.flat[v*n : (v+1)*n]
		for i, row := range d.X {
			if v < len(row) {
				col[i] = row[v]
			} else {
				col[i] = 0
			}
		}
		cols[v] = col
	}
	b.n, b.cols, b.y = n, cols, d.Y
}

// slot is one VM stack entry: either a scalar (constants, and results of
// const-only subexpressions the folder could not see, e.g. out-of-width
// variables) or a vector of one value per sample.
type slot struct {
	vec      []float64
	scalar   float64
	isScalar bool
}

// Machine holds the VM's reusable scratch: the stack slots, one flat
// float64 slab backing every owned stack vector, and the residual buffer
// the scoring helpers use. A Machine grows to the largest (program,
// batch) it has run and then stops allocating; it is not safe for
// concurrent use — pool one per worker.
type Machine struct {
	slab  []float64
	slots []slot
	rbuf  []float64
	sbuf  []float64
	ibuf  []int
	fit   fitScratch
}

// NewMachine returns an empty machine; buffers grow on first use.
func NewMachine() *Machine { return &Machine{} }

// resids returns the machine-owned residual buffer resized to n.
//
//dplint:hotpath gp-eval
func (m *Machine) resids(n int) []float64 {
	if cap(m.rbuf) < n {
		m.rbuf = make([]float64, n)
	}
	return m.rbuf[:n]
}

// selbuf returns the machine-owned percentile-selection scratch resized
// to n (permuted freely by the trimmed-fit helpers).
//
//dplint:hotpath gp-eval
func (m *Machine) selbuf(n int) []float64 {
	if cap(m.sbuf) < n {
		m.sbuf = make([]float64, n)
	}
	return m.sbuf[:n]
}

// selidx returns the machine-owned index scratch paired with selbuf by
// the trimmed-fit heap.
//
//dplint:hotpath gp-eval
func (m *Machine) selidx(n int) []int {
	if cap(m.ibuf) < n {
		m.ibuf = make([]int, n)
	}
	return m.ibuf[:n]
}

// Eval executes the program over every sample of the batch and returns
// one prediction per sample, bit-identical to calling Eval on the source
// tree row by row. The returned slice is owned by the machine (or
// aliases a batch column) and is valid, read-only, until the machine's
// next Eval.
//
//dplint:hotpath gp-eval
func (p *Program) Eval(b *Batch, m *Machine) []float64 {
	n := b.n
	if need := p.depth * n; cap(m.slab) < need {
		m.slab = make([]float64, need)
	}
	if cap(m.slots) < p.depth {
		m.slots = make([]slot, p.depth)
	}
	slots := m.slots[:cap(m.slots)]
	region := func(i int) []float64 { return m.slab[i*n : (i+1)*n] }
	sp := 0
	for _, ins := range p.code {
		switch {
		case ins.op == OpConst:
			slots[sp] = slot{scalar: ins.c, isScalar: true}
			sp++
		case ins.op == OpVar:
			if ins.v < len(b.cols) {
				slots[sp] = slot{vec: b.cols[ins.v]}
			} else {
				slots[sp] = slot{isScalar: true} // missing variable reads 0
			}
			sp++
		case ins.op.Arity() == 1:
			s := &slots[sp-1]
			if s.isScalar {
				s.scalar = apply1(ins.op, s.scalar)
			} else {
				dst := region(sp - 1)
				runUnary(ins.op, dst, s.vec)
				s.vec = dst
			}
		default: // binary
			bs := slots[sp-1]
			sp--
			as := &slots[sp-1]
			if as.isScalar && bs.isScalar {
				as.scalar = apply2(ins.op, as.scalar, bs.scalar)
				continue
			}
			// Broadcast a scalar operand into its own slot's region; the
			// two regions are disjoint, and dst == av aliasing is safe
			// because every loop reads index i before writing it.
			av := as.vec
			if as.isScalar {
				av = region(sp - 1)
				fill(av, as.scalar)
			}
			bv := bs.vec
			if bs.isScalar {
				bv = region(sp)
				fill(bv, bs.scalar)
			}
			dst := region(sp - 1)
			runBinary(ins.op, dst, av, bv)
			*as = slot{vec: dst}
		}
	}
	res := slots[0]
	if res.isScalar {
		dst := region(0)
		fill(dst, res.scalar)
		return dst
	}
	return res.vec
}

//dplint:hotpath gp-eval
func fill(v []float64, s float64) {
	for i := range v {
		v[i] = s
	}
}

// runUnary applies a unary kernel over a whole column.
//
//dplint:hotpath gp-eval
func runUnary(op Op, dst, src []float64) {
	src = src[:len(dst)]
	switch op {
	case OpSqrt:
		for i, x := range src {
			dst[i] = pSqrt(x)
		}
	case OpLog:
		for i, x := range src {
			dst[i] = pLog(x)
		}
	case OpAbs:
		for i, x := range src {
			dst[i] = pAbs(x)
		}
	case OpNeg:
		for i, x := range src {
			dst[i] = pNeg(x)
		}
	case OpInv:
		for i, x := range src {
			dst[i] = pInv(x)
		}
	case OpSin:
		for i, x := range src {
			dst[i] = pSin(x)
		}
	case OpCos:
		for i, x := range src {
			dst[i] = pCos(x)
		}
	case OpTan:
		for i, x := range src {
			dst[i] = pTan(x)
		}
	default:
		fill(dst, 0)
	}
}

// runBinary applies a binary kernel over two whole columns.
//
//dplint:hotpath gp-eval
func runBinary(op Op, dst, a, b []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	switch op {
	case OpAdd:
		for i := range dst {
			dst[i] = pAdd(a[i], b[i])
		}
	case OpSub:
		for i := range dst {
			dst[i] = pSub(a[i], b[i])
		}
	case OpMul:
		for i := range dst {
			dst[i] = pMul(a[i], b[i])
		}
	case OpDiv:
		for i := range dst {
			dst[i] = pDiv(a[i], b[i])
		}
	case OpMax:
		for i := range dst {
			dst[i] = pMax(a[i], b[i])
		}
	case OpMin:
		for i := range dst {
			dst[i] = pMin(a[i], b[i])
		}
	default:
		fill(dst, 0)
	}
}
