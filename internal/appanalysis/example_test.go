package appanalysis_test

import (
	"fmt"

	"dpreverser/internal/appanalysis"
)

// ExampleAnalyze runs Algorithm 1 over the paper's Fig. 9 method: read the
// response, check the "41 0C" prefix, split out two hex fragments, parse
// them, and display d1*0.25 + 64*d0.
func ExampleAnalyze() {
	m := appanalysis.Method{Name: "processResponse"}
	add := func(s appanalysis.Stmt) int {
		s.ID = len(m.Stmts)
		m.Stmts = append(m.Stmts, s)
		return s.ID
	}
	add(appanalysis.Stmt{Kind: appanalysis.StmtInvoke, Def: "r7",
		Callee: "InputStream.read", CtrlDep: -1})
	add(appanalysis.Stmt{Kind: appanalysis.StmtInvoke, Def: "z0",
		Callee: "String.startsWith", Uses: []string{"r7"}, StrConst: "41 0C", CtrlDep: -1})
	ifID := add(appanalysis.Stmt{Kind: appanalysis.StmtIf, Uses: []string{"z0"}, CtrlDep: -1})
	add(appanalysis.Stmt{Kind: appanalysis.StmtInvoke, Def: "r7c",
		Callee: "String.replace", Uses: []string{"r7"}, CtrlDep: ifID})
	add(appanalysis.Stmt{Kind: appanalysis.StmtInvoke, Def: "r9",
		Callee: "String.split", Uses: []string{"r7c"}, CtrlDep: ifID})
	add(appanalysis.Stmt{Kind: appanalysis.StmtInvoke, Def: "f0",
		Callee: "Array.index", Uses: []string{"r9"}, CtrlDep: ifID})
	add(appanalysis.Stmt{Kind: appanalysis.StmtInvoke, Def: "v1",
		Callee: "Integer.parseInt", Uses: []string{"f0"}, CtrlDep: ifID})
	add(appanalysis.Stmt{Kind: appanalysis.StmtInvoke, Def: "f1",
		Callee: "Array.index", Uses: []string{"r9"}, CtrlDep: ifID})
	add(appanalysis.Stmt{Kind: appanalysis.StmtInvoke, Def: "v2",
		Callee: "Integer.parseInt", Uses: []string{"f1"}, CtrlDep: ifID})
	add(appanalysis.Stmt{Kind: appanalysis.StmtBinOp, Def: "a",
		Uses: []string{"v1"}, Op: "*", ConstVal: 64, HasConst: true, ConstLeft: true, CtrlDep: ifID})
	add(appanalysis.Stmt{Kind: appanalysis.StmtBinOp, Def: "b",
		Uses: []string{"v2"}, Op: "*", ConstVal: 0.25, HasConst: true, CtrlDep: ifID})
	add(appanalysis.Stmt{Kind: appanalysis.StmtBinOp, Def: "y",
		Uses: []string{"b", "a"}, Op: "+", CtrlDep: ifID})
	add(appanalysis.Stmt{Kind: appanalysis.StmtDisplay, Uses: []string{"y"}, CtrlDep: ifID})

	app := &appanalysis.App{Name: "Fig9 example", Methods: []appanalysis.Method{m}}
	for _, f := range appanalysis.Analyze(app) {
		fmt.Println(f)
	}
	// Output:
	// Fig9 example: if prefix "41 0C" then Y = ((v2 * 0.25) + (64 * v1)) [OBD-II]
}
