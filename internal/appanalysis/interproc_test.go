package appanalysis

import (
	"strings"
	"testing"
)

// helperSplitApp reads the response in one method and delegates parsing
// and arithmetic to a helper — the style §4.6 reports the paper's linear,
// single-method analysis cannot extract.
func helperSplitApp() *App {
	main := build("onResponse", nil,
		Stmt{Kind: StmtInvoke, Def: "r", Callee: "InputStream.read"},
		Stmt{Kind: StmtInvoke, Def: "c", Callee: "String.startsWith", Uses: []string{"r"}, StrConst: "62 0D 12"},
		Stmt{Kind: StmtIf, Uses: []string{"c"}, Else: 6},
		Stmt{Kind: StmtInvoke, Def: "f", Callee: "String.substring", Uses: []string{"r"}},
		Stmt{Kind: StmtInvoke, Def: "y", Callee: "parseAndScale", Uses: []string{"f"}},
		Stmt{Kind: StmtDisplay, Uses: []string{"y"}},
	)
	helper := build("parseAndScale", []string{"frag"},
		Stmt{Kind: StmtInvoke, Def: "p", Callee: "Integer.parseInt", Uses: []string{"frag"}},
		Stmt{Kind: StmtBinOp, Def: "t", Uses: []string{"p"}, Op: "*", ConstVal: 0.25, HasConst: true},
		Stmt{Kind: StmtBinOp, Def: "out", Uses: []string{"t"}, Op: "-", ConstVal: 40, HasConst: true},
		Stmt{Kind: StmtReturn, Uses: []string{"out"}},
	)
	return &App{Name: "helper-split", Methods: []Method{main, helper}}
}

func TestHelperSummary(t *testing.T) {
	sums := Summaries(helperSplitApp())
	sum := sums["parseAndScale"]
	if sum == nil {
		t.Fatal("no summary for parseAndScale")
	}
	if sum.ReturnMask&paramLabel(0) == 0 {
		t.Error("summary misses the param0 → return flow")
	}
	if sum.ReadsResponse() {
		t.Error("helper does not read the response itself")
	}
	if !sum.HasExpr || !sum.Arith {
		t.Fatalf("summary = %+v, want reconstructed arithmetic expression", sum)
	}
	if want := "((v(p) * 0.25) - 40)"; sum.Expr != want {
		t.Errorf("summary expr = %q, want %q", sum.Expr, want)
	}
}

// TestMultiMethodFormulaRecovered is the acceptance-criteria demonstration:
// the pre-PR analyzer walked each method linearly and in isolation, so a
// formula whose read happens in the caller and whose arithmetic lives in a
// helper produced *zero* formulas (the helper's parameter was untainted,
// the caller had no arithmetic). The interprocedural engine reconstructs
// it end to end; this test fails against the old behaviour.
func TestMultiMethodFormulaRecovered(t *testing.T) {
	got := Analyze(helperSplitApp())
	if len(got) != 1 {
		t.Fatalf("formulas = %v, want exactly 1 (the linear analyzer found 0)", got)
	}
	f := got[0]
	if f.Condition != "62 0D 12" || f.Kind != KindUDS {
		t.Errorf("condition = %q kind = %v", f.Condition, f.Kind)
	}
	if want := "((v(p) * 0.25) - 40)"; f.Expr != want {
		t.Errorf("expr = %q, want %q", f.Expr, want)
	}
	if f.Method != "onResponse" {
		t.Errorf("formula attributed to %q, want the caller", f.Method)
	}
}

func TestHelperChainSubstitutesArguments(t *testing.T) {
	// The caller parses, a helper scales via a second-level helper: the
	// summary expression must substitute actual arguments through both
	// levels.
	main := build("show", nil,
		Stmt{Kind: StmtInvoke, Def: "r", Callee: "InputStream.read"},
		Stmt{Kind: StmtInvoke, Def: "c", Callee: "String.startsWith", Uses: []string{"r"}, StrConst: "41 05"},
		Stmt{Kind: StmtIf, Uses: []string{"c"}, Else: 7},
		Stmt{Kind: StmtInvoke, Def: "f", Callee: "String.substring", Uses: []string{"r"}},
		Stmt{Kind: StmtInvoke, Def: "p", Callee: "Integer.parseInt", Uses: []string{"f"}},
		Stmt{Kind: StmtInvoke, Def: "y", Callee: "toCelsius", Uses: []string{"p"}},
		Stmt{Kind: StmtDisplay, Uses: []string{"y"}},
	)
	outer := build("toCelsius", []string{"x"},
		Stmt{Kind: StmtInvoke, Def: "h", Callee: "offset", Uses: []string{"x"}},
		Stmt{Kind: StmtReturn, Uses: []string{"h"}},
	)
	inner := build("offset", []string{"v"},
		Stmt{Kind: StmtBinOp, Def: "o", Uses: []string{"v"}, Op: "-", ConstVal: 40, HasConst: true},
		Stmt{Kind: StmtReturn, Uses: []string{"o"}},
	)
	app := &App{Name: "chain", Methods: []Method{main, outer, inner}}
	got := Analyze(app)
	if len(got) != 1 {
		t.Fatalf("formulas = %v, want 1", got)
	}
	if want := "(v(p) - 40)"; got[0].Expr != want {
		t.Errorf("expr = %q, want %q", got[0].Expr, want)
	}
	if got[0].Condition != "41 05" {
		t.Errorf("condition = %q", got[0].Condition)
	}
}

func TestConditionInsideHelperInherited(t *testing.T) {
	// The helper checks the response prefix itself; the caller has no
	// branch. The formula's condition comes from the callee's summary.
	main := build("update", nil,
		Stmt{Kind: StmtInvoke, Def: "r", Callee: "InputStream.read"},
		Stmt{Kind: StmtInvoke, Def: "y", Callee: "decode", Uses: []string{"r"}},
		Stmt{Kind: StmtDisplay, Uses: []string{"y"}},
	)
	helper := build("decode", []string{"resp"},
		Stmt{Kind: StmtInvoke, Def: "c", Callee: "String.startsWith", Uses: []string{"resp"}, StrConst: "61 8A"},
		Stmt{Kind: StmtIf, Uses: []string{"c"}, Else: 7},
		Stmt{Kind: StmtInvoke, Def: "s", Callee: "String.split", Uses: []string{"resp"}},
		Stmt{Kind: StmtInvoke, Def: "f", Callee: "Array.index", Uses: []string{"s"}},
		Stmt{Kind: StmtInvoke, Def: "p", Callee: "Integer.parseInt", Uses: []string{"f"}},
		Stmt{Kind: StmtBinOp, Def: "y", Uses: []string{"p"}, Op: "/", ConstVal: 2, HasConst: true},
		Stmt{Kind: StmtReturn, Uses: []string{"y"}},
		Stmt{Kind: StmtConst, Def: "z", ConstVal: 0},
		Stmt{Kind: StmtReturn, Uses: []string{"z"}},
	)
	app := &App{Name: "cond-helper", Methods: []Method{main, helper}}
	got := Analyze(app)
	if len(got) != 1 {
		t.Fatalf("formulas = %v, want 1", got)
	}
	if got[0].Condition != "61 8A" || got[0].Kind != KindKWP {
		t.Errorf("formula = %+v, want inherited KWP condition", got[0])
	}
	if !strings.Contains(got[0].Expr, "/ 2") {
		t.Errorf("expr = %q", got[0].Expr)
	}
}

func TestRecursiveHelperIsConservative(t *testing.T) {
	// Recursion has no summary: taint is killed at the cycle and no
	// formula is claimed (no spurious output, no non-termination).
	main := build("poll", nil,
		Stmt{Kind: StmtInvoke, Def: "r", Callee: "InputStream.read"},
		Stmt{Kind: StmtInvoke, Def: "p", Callee: "Integer.parseInt", Uses: []string{"r"}},
		Stmt{Kind: StmtInvoke, Def: "y", Callee: "spin", Uses: []string{"p"}},
		Stmt{Kind: StmtDisplay, Uses: []string{"y"}},
	)
	rec := build("spin", []string{"x"},
		Stmt{Kind: StmtInvoke, Def: "t", Callee: "spin", Uses: []string{"x"}},
		Stmt{Kind: StmtBinOp, Def: "y", Uses: []string{"t"}, Op: "*", ConstVal: 2, HasConst: true},
		Stmt{Kind: StmtReturn, Uses: []string{"y"}},
	)
	app := &App{Name: "recursive", Methods: []Method{main, rec}}
	if got := Analyze(app); len(got) != 0 {
		t.Fatalf("recursive helper produced formulas: %v", got)
	}
}

func TestReturnedFormulaNotDoubleCounted(t *testing.T) {
	// A helper whose formula value is returned must not count the formula
	// once in the helper and again at the call site.
	helper := build("compute", []string{"resp"},
		Stmt{Kind: StmtInvoke, Def: "p", Callee: "Integer.parseInt", Uses: []string{"resp"}},
		Stmt{Kind: StmtBinOp, Def: "y", Uses: []string{"p"}, Op: "*", ConstVal: 2, HasConst: true},
		Stmt{Kind: StmtReturn, Uses: []string{"y"}},
	)
	main := build("onData", nil,
		Stmt{Kind: StmtInvoke, Def: "r", Callee: "InputStream.read"},
		Stmt{Kind: StmtInvoke, Def: "c", Callee: "String.startsWith", Uses: []string{"r"}, StrConst: "41 0C"},
		Stmt{Kind: StmtIf, Uses: []string{"c"}, Else: 5},
		Stmt{Kind: StmtInvoke, Def: "y", Callee: "compute", Uses: []string{"r"}},
		Stmt{Kind: StmtDisplay, Uses: []string{"y"}},
	)
	app := &App{Name: "no-double", Methods: []Method{main, helper}}
	got := Analyze(app)
	if len(got) != 1 {
		t.Fatalf("formulas = %d (%v), want exactly 1", len(got), got)
	}
	if got[0].Method != "onData" {
		t.Errorf("formula attributed to %q, want the caller", got[0].Method)
	}
}
