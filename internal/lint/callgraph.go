package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The call graph used by locknest. Nodes are declared functions/methods
// (identified by their *types.Func) and function literals (identified by
// their *ast.FuncLit); edges are synchronous calls. Calls launched on a new
// goroutine (`go f()`, `go func(){...}()`, time.AfterFunc callbacks) get no
// edge: they run outside the caller's lock context, so handing lock-taking
// work to a goroutine from inside a Locked callback is legal. Dynamic calls through module-declared interfaces expand to every
// implementing method (class-hierarchy analysis); calls through plain func
// values and stdlib interfaces are not resolved.

type cgNode struct {
	fn   *types.Func  // nil for literals
	lit  *ast.FuncLit // nil for declared functions
	name string
	pos  token.Pos
	out  []cgEdge
}

type cgEdge struct {
	to  *cgNode
	pos token.Pos // call site
}

type callGraph struct {
	modulePath string
	fset       *token.FileSet
	nodes      map[any]*cgNode // *types.Func or *ast.FuncLit
	// decls maps declared functions to their syntax, for directive lookup.
	decls map[*types.Func]*ast.FuncDecl
	// impls maps a module-declared interface method to the methods of every
	// module-declared concrete type implementing the interface.
	impls map[*types.Func][]*types.Func
}

func buildCallGraph(modulePath string, fset *token.FileSet, pkgs []*Package) *callGraph {
	g := &callGraph{
		modulePath: modulePath,
		fset:       fset,
		nodes:      make(map[any]*cgNode),
		decls:      make(map[*types.Func]*ast.FuncDecl),
		impls:      make(map[*types.Func][]*types.Func),
	}
	g.buildImpls(pkgs)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.decls[fn] = fd
				g.walk(g.nodeForFunc(fn), fd.Body, pkg.Info)
			}
		}
	}
	// Dynamic dispatch: every called interface method fans out to the
	// module-declared implementations, once.
	for m, impls := range g.impls {
		n, ok := g.nodes[m]
		if !ok {
			continue
		}
		for _, impl := range impls {
			n.out = append(n.out, cgEdge{to: g.nodeForFunc(impl), pos: m.Pos()})
		}
	}
	return g
}

// buildImpls indexes, for every method of every module-declared interface,
// the implementing methods of module-declared concrete types.
func (g *callGraph) buildImpls(pkgs []*Package) {
	var ifaces []*types.Interface
	var ifaceMethods []*types.Func
	var concrete []types.Type
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumMethods(); i++ {
					ifaces = append(ifaces, iface)
					ifaceMethods = append(ifaceMethods, iface.Method(i))
				}
			} else {
				concrete = append(concrete, named)
			}
		}
	}
	for i, m := range ifaceMethods {
		iface := ifaces[i]
		for _, t := range concrete {
			ptr := types.NewPointer(t)
			if !types.Implements(t, iface) && !types.Implements(ptr, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
			if impl, ok := obj.(*types.Func); ok {
				g.impls[m] = append(g.impls[m], impl)
			}
		}
	}
}

func (g *callGraph) nodeForFunc(fn *types.Func) *cgNode {
	if n, ok := g.nodes[fn]; ok {
		return n
	}
	n := &cgNode{fn: fn, name: shortFuncName(g.modulePath, fn), pos: fn.Pos()}
	g.nodes[fn] = n
	return n
}

func (g *callGraph) nodeForLit(lit *ast.FuncLit) *cgNode {
	if n, ok := g.nodes[lit]; ok {
		return n
	}
	pos := g.fset.Position(lit.Pos())
	n := &cgNode{lit: lit, name: "func literal at " + trimPos(pos.String()), pos: lit.Pos()}
	g.nodes[lit] = n
	return n
}

// inModule reports whether fn is declared in this module (we only keep edges
// to module code; stdlib bodies are never walked and never sinks).
func (g *callGraph) inModule(fn *types.Func) bool {
	return fn.Pkg() != nil &&
		(fn.Pkg().Path() == g.modulePath || strings.HasPrefix(fn.Pkg().Path(), g.modulePath+"/"))
}

// walk records the synchronous call edges out of node n within syntax tree
// body.
func (g *callGraph) walk(n *cgNode, body ast.Node, info *types.Info) {
	var visit func(node ast.Node) bool
	visit = func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.GoStmt:
			// The spawned call runs outside this lock context: no edge to the
			// callee (or to a literal callee's body), but argument
			// expressions evaluate synchronously.
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				g.walkDetached(lit, x.Call.Args, info)
				return false
			}
			for _, arg := range x.Call.Args {
				ast.Inspect(arg, visit)
			}
			return false
		case *ast.FuncLit:
			// A literal in call-argument position may be invoked
			// synchronously by the callee (h.Locked(func(){...}),
			// sort.Slice): conservatively give it an edge. That case is
			// handled under CallExpr below; a literal reached here is being
			// stored (assigned, returned, placed in a composite literal) and
			// its eventual call site owns the lock context, so no edge.
			g.walk(g.nodeForLit(x), x.Body, info)
			return false
		case *ast.CallExpr:
			g.edgesForCall(n, x, info, visit)
			return false
		}
		return true
	}
	ast.Inspect(body, visit)
}

// walkDetached analyzes a goroutine-launched literal and its arguments
// without connecting them to the current node.
func (g *callGraph) walkDetached(lit *ast.FuncLit, args []ast.Expr, info *types.Info) {
	g.walk(g.nodeForLit(lit), lit.Body, info)
	for _, arg := range args {
		g.walk(&cgNode{name: "detached args"}, arg, info)
	}
}

// asyncCallees are functions whose func-typed arguments run on another
// goroutine: literal arguments get no edge from the caller.
var asyncCallees = map[string]bool{
	"time.AfterFunc":                       true,
	"abstractbft/internal/clock.AfterFunc": true,
}

// edgesForCall resolves one call expression into edges.
func (g *callGraph) edgesForCall(n *cgNode, call *ast.CallExpr, info *types.Info, visit func(ast.Node) bool) {
	callee := calleeOf(info, call)
	async := callee != nil && asyncCallees[callee.FullName()]

	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// Immediate invocation: func(){...}().
		litNode := g.nodeForLit(lit)
		n.out = append(n.out, cgEdge{to: litNode, pos: call.Lparen})
		g.walk(litNode, lit.Body, info)
	} else {
		ast.Inspect(call.Fun, visit)
		if callee != nil && g.inModule(callee) {
			n.out = append(n.out, cgEdge{to: g.nodeForFunc(callee), pos: call.Lparen})
		}
	}
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			litNode := g.nodeForLit(lit)
			if async {
				g.walk(litNode, lit.Body, info)
			} else {
				n.out = append(n.out, cgEdge{to: litNode, pos: arg.Pos()})
				g.walk(litNode, lit.Body, info)
			}
			continue
		}
		ast.Inspect(arg, visit)
	}
}

// calleeOf resolves the statically known callee of a call, if any.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal {
				if fn, ok := sel.Obj().(*types.Func); ok {
					return fn
				}
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn // package-qualified call
		}
	}
	return nil
}

// shortFuncName renders a function name with module-internal package paths
// abbreviated to their last element.
func shortFuncName(modulePath string, fn *types.Func) string {
	name := fn.FullName()
	name = strings.ReplaceAll(name, modulePath+"/internal/", "")
	return name
}

// trimPos shortens an absolute fixture path to its base elements.
func trimPos(s string) string {
	if i := strings.LastIndex(s, "/"); i >= 0 {
		return s[i+1:]
	}
	return s
}
