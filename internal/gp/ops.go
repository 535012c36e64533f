package gp

import "math"

// Protected scalar kernels. These are the single source of truth for the
// function set's float semantics: Node.Eval (the reference interpreter),
// Compile's constant folder and the bytecode VM's batch loops all call the
// same functions, so the three paths are bit-identical by construction —
// the determinism argument DESIGN.md spells out.

func pAdd(a, b float64) float64 { return a + b }
func pSub(a, b float64) float64 { return a - b }
func pMul(a, b float64) float64 { return a * b }

// pDiv is protected division: near-zero denominators yield 1 (the gplearn
// convention), so finite inputs never produce a division blow-up.
func pDiv(a, b float64) float64 {
	if math.Abs(b) < protectedEps {
		return 1
	}
	return a / b
}

func pSqrt(a float64) float64 { return math.Sqrt(math.Abs(a)) }

// pLog is protected log: |a| below the guard yields 0.
func pLog(a float64) float64 {
	v := math.Abs(a)
	if v < protectedEps {
		return 0
	}
	return math.Log(v)
}

func pAbs(a float64) float64 { return math.Abs(a) }
func pNeg(a float64) float64 { return -a }

// pMax and pMin compare first and leave to math.Max/math.Min only what a
// comparison cannot decide, ties (signed zeros) and NaN: bit-identical.
func pMax(a, b float64) float64 {
	if a > b {
		return a
	} else if b > a {
		return b
	}
	return math.Max(a, b)
}

func pMin(a, b float64) float64 {
	if a < b {
		return a
	} else if b < a {
		return b
	}
	return math.Min(a, b)
}

// pInv is protected inverse: near-zero inputs yield 1.
func pInv(a float64) float64 {
	if math.Abs(a) < protectedEps {
		return 1
	}
	return 1 / a
}

func pSin(a float64) float64 { return math.Sin(a) }
func pCos(a float64) float64 { return math.Cos(a) }

// pTan is protected tangent: NaN becomes 0 and the poles are clamped to a
// large finite magnitude. The clamp compares first; it is bit-identical
// to math.Max(-1e6, math.Min(1e6, v)).
func pTan(a float64) float64 {
	v := math.Tan(a)
	if math.IsNaN(v) {
		return 0
	} else if v > 1e6 {
		return 1e6
	} else if v < -1e6 {
		return -1e6
	}
	return v
}

// apply1 dispatches a unary op to its kernel.
func apply1(op Op, a float64) float64 {
	switch op {
	case OpSqrt:
		return pSqrt(a)
	case OpLog:
		return pLog(a)
	case OpAbs:
		return pAbs(a)
	case OpNeg:
		return pNeg(a)
	case OpInv:
		return pInv(a)
	case OpSin:
		return pSin(a)
	case OpCos:
		return pCos(a)
	case OpTan:
		return pTan(a)
	default:
		return 0
	}
}

// apply2 dispatches a binary op to its kernel.
func apply2(op Op, a, b float64) float64 {
	switch op {
	case OpAdd:
		return pAdd(a, b)
	case OpSub:
		return pSub(a, b)
	case OpMul:
		return pMul(a, b)
	case OpDiv:
		return pDiv(a, b)
	case OpMax:
		return pMax(a, b)
	case OpMin:
		return pMin(a, b)
	default:
		return 0
	}
}
