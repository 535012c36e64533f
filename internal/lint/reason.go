package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// ReasonExhaustive keeps two enumerations closed that the compiler cannot
// check:
//
// Error-reason coverage. Each transport package (isotp, vwtp)
// exports error sentinels and a Reason(err) classifier that folds them
// into the stable reason labels the telemetry error counters use. A
// sentinel the classifier does not mention silently lands in the
// catch-all bucket, which is how a new failure mode disappears from the
// dashboards. In any package that declares an exported
// `func Reason(error) ...`, every exported package-level `Err*` sentinel
// of type error must be referenced inside Reason's body.
//
// Metric-family registration. Every metric family registered on a
// telemetry Registry (Counter, CounterVec, Gauge, GaugeVec, Histogram,
// HistogramVec) must take its name from a declared constant — so
// scrapers and alert rules have one symbol to grep for — and each family
// name must be registered at most once across the module's non-test
// code; a second registration site means two subsystems silently share
// (and double-count) one time series. Test files are exempt: they
// register throwaway families on throwaway registries.
var ReasonExhaustive = &Analyzer{
	Name: "reasonexhaustive",
	Doc: "error sentinels must be covered by the package's Reason classifier; " +
		"telemetry metric families must be named by constants and registered once",
	Run: runReasonExhaustive,
}

func runReasonExhaustive(pass *Pass) error {
	checkReasonCoverage(pass)
	checkMetricRegistrations(pass)
	return nil
}

// checkReasonCoverage enforces the sentinel rule for packages declaring an
// exported Reason classifier.
func checkReasonCoverage(pass *Pass) {
	info := pass.Pkg.TypesInfo
	reason := findReasonDecl(pass.Pkg)
	if reason == nil || reason.Body == nil {
		return
	}
	covered := map[types.Object]bool{}
	ast.Inspect(reason.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				covered[obj] = true
			}
		}
		return true
	})
	errType := types.Universe.Lookup("error").Type()
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "Err") || !name.IsExported() {
						continue
					}
					obj := info.Defs[name]
					if obj == nil || !types.Identical(obj.Type(), errType) {
						continue
					}
					if !covered[obj] {
						pass.Reportf(name.Pos(),
							"sentinel %s is not covered by %s.Reason; uncovered errors fall into "+
								"the catch-all telemetry bucket", name.Name, pass.Pkg.Types.Name())
					}
				}
			}
		}
	}
}

// findReasonDecl returns the package-level exported Reason function taking
// an error, or nil.
func findReasonDecl(pkg *Package) *ast.FuncDecl {
	errType := types.Universe.Lookup("error").Type()
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Name.Name != "Reason" {
				continue
			}
			fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := fn.Type().(*types.Signature)
			if sig.Params().Len() == 1 && types.Identical(sig.Params().At(0).Type(), errType) {
				return fd
			}
		}
	}
	return nil
}

// registryMethods are the telemetry.Registry constructors whose first
// argument names a metric family.
var registryMethods = map[string]bool{
	"Counter":      true,
	"CounterVec":   true,
	"Gauge":        true,
	"GaugeVec":     true,
	"Histogram":    true,
	"HistogramVec": true,
}

// metricRegistration is one Registry constructor call site.
type metricRegistration struct {
	pos  token.Pos
	name string // resolved family name; "" when not a declared constant
	call *ast.CallExpr
}

// checkMetricRegistrations enforces the constant-name and register-once
// rules for the current package.
func checkMetricRegistrations(pass *Pass) {
	local := metricRegistrationsIn(pass.Module, pass.Pkg)
	if len(local) == 0 {
		return
	}
	// Earliest module-wide registration position per family name, so each
	// duplicate is reported exactly once, at every site but the first.
	first := map[string]token.Pos{}
	for _, pkg := range pass.Module.Packages {
		for _, reg := range metricRegistrationsIn(pass.Module, pkg) {
			if reg.name == "" {
				continue
			}
			if p, ok := first[reg.name]; !ok || reg.pos < p {
				first[reg.name] = reg.pos
			}
		}
	}
	for _, reg := range local {
		if reg.name == "" {
			pass.Reportf(reg.call.Args[0].Pos(),
				"metric family name must be a declared constant (like telemetry.MetricRuns), "+
					"not an inline string, so dashboards have one symbol to grep for")
			continue
		}
		if first[reg.name] < reg.pos {
			where := pass.Module.Fset.Position(first[reg.name])
			pass.Reportf(reg.call.Args[0].Pos(),
				"metric family %q is already registered at %s:%d; two registration sites "+
					"double-count one time series", reg.name,
				pass.Module.relFile(where.Filename), where.Line)
		}
	}
}

// metricRegistrationsIn lists Registry constructor calls in a package's
// non-test files. Constant-named registrations carry the resolved family
// name; literal or computed names carry "".
func metricRegistrationsIn(m *Module, pkg *Package) []metricRegistration {
	if strings.HasSuffix(pkg.Path, "_test") {
		return nil
	}
	var out []metricRegistration
	info := pkg.TypesInfo
	for i, f := range pkg.Files {
		if strings.HasSuffix(pkg.FilePaths[i], "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || !registryMethods[fn.Name()] {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil ||
				!isNamedType(sig.Recv().Type(), telemetryImportPath, "Registry") {
				return true
			}
			out = append(out, metricRegistration{
				pos:  call.Pos(),
				name: constStringArg(info, call.Args[0]),
				call: call,
			})
			return true
		})
	}
	return out
}

// constStringArg resolves an argument to the string value of the declared
// constant it references, or "" when it is anything else (literals
// included: the rule wants a named symbol, not just a constant value).
func constStringArg(info *types.Info, arg ast.Expr) string {
	var id *ast.Ident
	switch e := ast.Unparen(arg).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return ""
	}
	c, ok := info.Uses[id].(*types.Const)
	if !ok || c.Val().Kind() != constant.String {
		return ""
	}
	return constant.StringVal(c.Val())
}
