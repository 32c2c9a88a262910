package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockNest flags code that re-enters the host lock from a context that
// already holds it — the PR 1 R-Aliph self-deadlock class, where a Locked
// callback called Host.InstanceStateFor (which takes the lock itself).
//
// Two checks run:
//
//  1. Interprocedural: a call graph over the module connects every
//     lock-held entry point — function literals passed to
//     (*host.Host).Locked, implementations of interface methods annotated
//     //abstractbft:lockheld (ProtocolReplica.Handle and friends, which the
//     host event loop invokes under its lock), and functions assigned to
//     lockheld-annotated config fields — to the host.Host methods that
//     acquire h.mu. Any path is a deadlock. Goroutine launches break the
//     path (handing work to a goroutine is the sanctioned escape), and a
//     function annotated //abstractbft:locksafe is trusted and not
//     traversed.
//
//  2. Intraprocedural: inside any method that locks a mutex field of its
//     own receiver, a call to another method of the same receiver that
//     locks the same field is flagged — the same class caught without
//     annotations, for every lock in the module.
var LockNest = &Analyzer{
	Name:   "locknest",
	Doc:    "detect re-entry into the host lock (or any receiver mutex) from code already holding it",
	Module: true,
	Run:    runLockNest,
}

type lockSource struct {
	node *cgNode
	pos  token.Pos
	desc string
}

func runLockNest(pass *Pass) error {
	pkgs := modulePackages(pass)
	g := buildCallGraph(pass.ModulePath, pass.Fset, pkgs)

	sinks := hostLockSinks(pass, pkgs, g)
	if len(sinks) > 0 {
		sources := lockSources(pass, pkgs, g)
		reportLockPaths(pass, g, sources, sinks)
	}

	for _, pkg := range pass.Roots {
		if !pkg.XTest {
			relockCheck(pass, pkg)
		}
	}
	return nil
}

// modulePackages returns the non-test module packages (fixture and
// production code; external test packages never run under the host lock).
func modulePackages(pass *Pass) []*Package {
	var out []*Package
	for _, pkg := range pass.All {
		if !pkg.XTest {
			out = append(out, pkg)
		}
	}
	return out
}

// hostLockSinks finds every method of host.Host whose body acquires h.mu.
func hostLockSinks(pass *Pass, pkgs []*Package, g *callGraph) map[*cgNode]bool {
	sinks := make(map[*cgNode]bool)
	for _, pkg := range pkgs {
		if pkg.Path != pass.ModulePath+"/internal/host" {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Body == nil {
					continue
				}
				if tn := receiverTypeName(pkg.Info, fd); tn == nil || tn.Name() != "Host" {
					continue
				}
				if len(directLockedFields(fd)) == 0 {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					sinks[g.nodeForFunc(fn)] = true
				}
			}
		}
	}
	return sinks
}

// lockSources enumerates every node known to execute while the host lock is
// held.
func lockSources(pass *Pass, pkgs []*Package, g *callGraph) []lockSource {
	var sources []lockSource
	addFuncExpr := func(info *types.Info, e ast.Expr, desc string) {
		switch v := ast.Unparen(e).(type) {
		case *ast.FuncLit:
			if n, ok := g.nodes[v]; ok {
				sources = append(sources, lockSource{node: n, pos: v.Pos(), desc: desc})
			}
		case *ast.Ident, *ast.SelectorExpr:
			if fn := funcValueOf(info, v); fn != nil {
				if n, ok := g.nodes[fn]; ok {
					sources = append(sources, lockSource{node: n, pos: e.Pos(), desc: desc})
				}
			}
		}
	}

	// Annotated func-typed struct fields (Config.RetainFloor, ...): every
	// function assigned to one runs under the lock.
	lockheldFields := make(map[*types.Var]string)

	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(node ast.Node) bool {
				switch x := node.(type) {
				case *ast.FuncDecl:
					if hasDirective("lockheld", x.Doc) {
						if fn, ok := pkg.Info.Defs[x.Name].(*types.Func); ok {
							if n, ok := g.nodes[fn]; ok {
								sources = append(sources, lockSource{node: n, pos: x.Name.Pos(),
									desc: x.Name.Name + " is annotated //abstractbft:lockheld"})
							}
						}
					}
				case *ast.TypeSpec:
					switch t := x.Type.(type) {
					case *ast.InterfaceType:
						for _, m := range t.Methods.List {
							if !hasDirective("lockheld", m.Doc, m.Comment) {
								continue
							}
							for _, name := range m.Names {
								mfn, ok := pkg.Info.Defs[name].(*types.Func)
								if !ok {
									continue
								}
								for _, impl := range g.impls[mfn] {
									if n, ok := g.nodes[impl]; ok {
										sources = append(sources, lockSource{node: n, pos: impl.Pos(),
											desc: "implements " + x.Name.Name + "." + name.Name + ", which the host calls under its lock"})
									}
								}
							}
						}
					case *ast.StructType:
						for _, fld := range t.Fields.List {
							if !hasDirective("lockheld", fld.Doc, fld.Comment) {
								continue
							}
							for _, name := range fld.Names {
								if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
									lockheldFields[v] = x.Name.Name + "." + name.Name
								}
							}
						}
					}
				}
				return true
			})
		}
	}

	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(node ast.Node) bool {
				switch x := node.(type) {
				case *ast.CallExpr:
					// fn passed to (*host.Host).Locked.
					if callee := calleeOf(pkg.Info, x); callee != nil &&
						callee.Name() == "Locked" && isHostMethod(pass.ModulePath, callee) && len(x.Args) == 1 {
						addFuncExpr(pkg.Info, x.Args[0], "passed to (*host.Host).Locked")
					}
				case *ast.CompositeLit:
					for _, elt := range x.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						key, ok := kv.Key.(*ast.Ident)
						if !ok {
							continue
						}
						if v, ok := pkg.Info.Uses[key].(*types.Var); ok {
							if fieldName, ok := lockheldFields[v]; ok {
								addFuncExpr(pkg.Info, kv.Value, "assigned to "+fieldName+", which the host calls under its lock")
							}
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range x.Lhs {
						sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
						if !ok || i >= len(x.Rhs) {
							continue
						}
						if v, ok := pkg.Info.Uses[sel.Sel].(*types.Var); ok {
							if fieldName, ok := lockheldFields[v]; ok {
								addFuncExpr(pkg.Info, x.Rhs[i], "assigned to "+fieldName+", which the host calls under its lock")
							}
						}
					}
				}
				return true
			})
		}
	}
	return sources
}

// funcValueOf resolves an expression used as a func value to its declared
// function, if statically known.
func funcValueOf(info *types.Info, e ast.Expr) *types.Func {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[v].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[v.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isHostMethod reports whether fn is a method of host.Host.
func isHostMethod(modulePath string, fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || fn.Pkg() == nil || fn.Pkg().Path() != modulePath+"/internal/host" {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Host"
}

// reportLockPaths walks the call graph from every lock-held source and
// reports the first path reaching a lock-acquiring host method.
func reportLockPaths(pass *Pass, g *callGraph, sources []lockSource, sinks map[*cgNode]bool) {
	rootFiles := rootFileSet(pass)
	for _, src := range sources {
		if !rootFiles[pass.Fset.Position(src.pos).Filename] {
			continue
		}
		if path := findLockPath(g, src.node, sinks); path != nil {
			names := make([]string, len(path))
			for i, n := range path {
				names[i] = n.name
			}
			pass.Reportf(src.pos,
				"%s runs under the host lock (%s) but re-enters it: %s acquires h.mu (deadlock); "+
					"hand the call to a goroutine, use the *Locked form, or annotate the audited hand-off //abstractbft:locksafe",
				path[0].name, src.desc, strings.Join(names, " -> "))
		}
	}
}

// findLockPath BFSes from src and returns the shortest node path ending in a
// sink, or nil. Traversal does not continue through functions annotated
// //abstractbft:locksafe.
func findLockPath(g *callGraph, src *cgNode, sinks map[*cgNode]bool) []*cgNode {
	if src == nil {
		return nil
	}
	parent := map[*cgNode]*cgNode{src: nil}
	queue := []*cgNode{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if sinks[n] {
			var path []*cgNode
			for m := n; m != nil; m = parent[m] {
				path = append([]*cgNode{m}, path...)
			}
			return path
		}
		if n.fn != nil && n != src {
			if fd := g.decls[n.fn]; fd != nil && hasDirective("locksafe", fd.Doc) {
				continue
			}
		}
		for _, e := range n.out {
			if _, seen := parent[e.to]; !seen {
				parent[e.to] = n
				queue = append(queue, e.to)
			}
		}
	}
	return nil
}

// rootFileSet returns the set of file names belonging to root packages.
func rootFileSet(pass *Pass) map[string]bool {
	files := make(map[string]bool)
	for _, pkg := range pass.Roots {
		for _, f := range pkg.Files {
			files[pass.Fset.Position(f.Pos()).Filename] = true
		}
	}
	return files
}

// ---- Intraprocedural re-lock check ----------------------------------------

// receiverTypeName returns the named type of a method's receiver.
func receiverTypeName(info *types.Info, fd *ast.FuncDecl) *types.TypeName {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// receiverIdent returns the receiver's identifier name ("" for anonymous).
func receiverIdent(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// mutexCall matches recv.<field>.<op>() and returns the field and op.
func mutexCall(recv string, call *ast.CallExpr) (field, op string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	inner, okInner := sel.X.(*ast.SelectorExpr)
	if !okInner {
		return "", "", false
	}
	base, okBase := inner.X.(*ast.Ident)
	if !okBase || base.Name != recv {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return inner.Sel.Name, sel.Sel.Name, true
	}
	return "", "", false
}

// directLockedFields returns the receiver mutex fields a method body locks
// directly.
func directLockedFields(fd *ast.FuncDecl) map[string]bool {
	recv := receiverIdent(fd)
	if recv == "" || fd.Body == nil {
		return nil
	}
	fields := make(map[string]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if f, op, ok := mutexCall(recv, call); ok && (op == "Lock" || op == "RLock") {
				fields[f] = true
			}
		}
		return true
	})
	if len(fields) == 0 {
		return nil
	}
	return fields
}

type methodKey struct {
	tn   *types.TypeName
	name string
}

// relockCheck flags, within one package, calls to a same-receiver method
// that acquires a mutex field the caller already holds.
func relockCheck(pass *Pass, pkg *Package) {
	locks := make(map[methodKey]map[string]bool)
	var decls []*ast.FuncDecl
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Body != nil {
				decls = append(decls, fd)
				if tn := receiverTypeName(pkg.Info, fd); tn != nil {
					if fields := directLockedFields(fd); fields != nil {
						locks[methodKey{tn, fd.Name.Name}] = fields
					}
				}
			}
		}
	}
	for _, fd := range decls {
		tn := receiverTypeName(pkg.Info, fd)
		recv := receiverIdent(fd)
		if tn == nil || recv == "" {
			continue
		}
		c := &relockChecker{pass: pass, pkg: pkg, tn: tn, recv: recv, locks: locks}
		c.walkStmts(fd.Body.List, map[string]token.Pos{})
	}
}

type relockChecker struct {
	pass  *Pass
	pkg   *Package
	tn    *types.TypeName
	recv  string
	locks map[methodKey]map[string]bool
}

// walkStmts tracks which receiver mutex fields are held through a statement
// sequence. Branches get a copy of the held set (an unlock inside a branch
// that falls through is treated as still-held: conservative).
func (c *relockChecker) walkStmts(stmts []ast.Stmt, held map[string]token.Pos) {
	for _, s := range stmts {
		c.walkStmt(s, held)
	}
}

func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func (c *relockChecker) walkStmt(s ast.Stmt, held map[string]token.Pos) {
	switch x := s.(type) {
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok {
			if f, op, ok := mutexCall(c.recv, call); ok {
				switch op {
				case "Lock", "RLock":
					held[f] = call.Pos()
				case "Unlock", "RUnlock":
					delete(held, f)
				}
				return
			}
		}
		c.checkExpr(x.X, held)
	case *ast.DeferStmt:
		if f, op, ok := mutexCall(c.recv, x.Call); ok && (op == "Unlock" || op == "RUnlock") {
			_ = f // deferred unlock: held until return
			return
		}
		c.checkExpr(x.Call, held)
	case *ast.GoStmt:
		// Runs on another goroutine: not under these locks.
	case *ast.BlockStmt:
		c.walkStmts(x.List, held)
	case *ast.IfStmt:
		if x.Init != nil {
			c.walkStmt(x.Init, held)
		}
		c.checkExpr(x.Cond, held)
		c.walkStmts(x.Body.List, copyHeld(held))
		if x.Else != nil {
			c.walkStmt(x.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if x.Init != nil {
			c.walkStmt(x.Init, held)
		}
		if x.Cond != nil {
			c.checkExpr(x.Cond, held)
		}
		c.walkStmts(x.Body.List, copyHeld(held))
	case *ast.RangeStmt:
		c.checkExpr(x.X, held)
		c.walkStmts(x.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if x.Init != nil {
			c.walkStmt(x.Init, held)
		}
		if x.Tag != nil {
			c.checkExpr(x.Tag, held)
		}
		for _, cc := range x.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				c.walkStmts(clause.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range x.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				c.walkStmts(clause.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		for _, cc := range x.Body.List {
			if clause, ok := cc.(*ast.CommClause); ok {
				c.walkStmts(clause.Body, copyHeld(held))
			}
		}
	case *ast.LabeledStmt:
		c.walkStmt(x.Stmt, held)
	case *ast.AssignStmt:
		for _, rhs := range x.Rhs {
			c.checkExpr(rhs, held)
		}
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			c.checkExpr(r, held)
		}
	case *ast.DeclStmt:
		c.checkExpr2(x, held)
	}
}

// checkExpr flags calls recv.M(...) where M locks a field currently held.
func (c *relockChecker) checkExpr(e ast.Expr, held map[string]token.Pos) {
	if len(held) == 0 || e == nil {
		return
	}
	c.checkExpr2(e, held)
}

func (c *relockChecker) checkExpr2(n ast.Node, held map[string]token.Pos) {
	ast.Inspect(n, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok {
			return false // deferred to its own call sites
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		base, ok := sel.X.(*ast.Ident)
		if !ok || base.Name != c.recv {
			return true
		}
		fields := c.locks[methodKey{c.tn, sel.Sel.Name}]
		for f, lockPos := range held {
			if fields[f] {
				c.pass.Reportf(call.Pos(),
					"(%s).%s acquires %s.%s, which is already held here (locked at %s): self-deadlock",
					c.tn.Name(), sel.Sel.Name, c.recv, f, c.pass.Fset.Position(lockPos))
			}
		}
		return true
	})
}
