package appanalysis

// Interprocedural layer: a call graph over an app's own methods and a
// bottom-up traversal that analyses callees before callers, so each
// caller's dataflow can map argument taint through the callee's summary
// and each caller's reconstruction can inline the callee's return
// expression. Recursive edges are left unresolved — a call into an
// unfinished summary kills taint, the paper's conservative treatment of
// apps its tool cannot analyse.

// analyzer holds the per-app analysis state.
type analyzer struct {
	app     *App
	methods map[string]*Method
	// order lists method names callees-first (DFS postorder over the call
	// graph, roots in declaration order).
	order     []string
	cfgs      map[string]*CFG
	flows     map[string]*dataflowResult
	summaries map[string]*Summary
}

func newAnalyzer(app *App) *analyzer {
	a := &analyzer{
		app:       app,
		methods:   map[string]*Method{},
		cfgs:      map[string]*CFG{},
		flows:     map[string]*dataflowResult{},
		summaries: map[string]*Summary{},
	}
	for mi := range app.Methods {
		m := &app.Methods[mi]
		if _, dup := a.methods[m.Name]; dup {
			continue // first declaration wins; corpus names are unique
		}
		a.methods[m.Name] = m
	}

	const (
		unvisited = iota
		onStack
		done
	)
	state := map[string]int{}
	var visit func(name string)
	visit = func(name string) {
		if state[name] != unvisited {
			return // done, or a back edge closing a recursion cycle
		}
		state[name] = onStack
		m := a.methods[name]
		for i := range m.Stmts {
			s := &m.Stmts[i]
			if s.Kind != StmtInvoke {
				continue
			}
			if _, ok := a.methods[s.Callee]; ok {
				visit(s.Callee)
			}
		}
		state[name] = done
		a.order = append(a.order, name)
	}
	for mi := range app.Methods {
		visit(app.Methods[mi].Name)
	}
	return a
}

// run analyses every method bottom-up: CFG construction, the worklist
// dataflow (with interprocedural taint transfer through already-computed
// summaries), then the method's own summary.
func (a *analyzer) run() {
	for _, name := range a.order {
		m := a.methods[name]
		cfg := BuildCFG(m)
		flow := runDataflow(cfg, a.callMask)
		a.cfgs[name] = cfg
		a.flows[name] = flow
		a.summaries[name] = a.buildSummary(name, cfg, flow)
	}
}

// callMask implements callMaskFunc over the summaries computed so far.
// Callees without a summary — framework APIs, or recursive calls whose
// summary is still being computed — report ok=false, killing taint.
func (a *analyzer) callMask(callee string, argMasks []uint64) (uint64, bool) {
	sum, ok := a.summaries[callee]
	if !ok || sum == nil {
		return 0, false
	}
	mask := sum.ReturnMask & respLabel
	for i := range argMasks {
		if sum.ReturnMask&paramLabel(i) != 0 {
			mask |= argMasks[i]
		}
	}
	return mask, true
}
