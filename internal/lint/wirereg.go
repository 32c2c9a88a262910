package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WireReg treats the binary codec's tag table — the appendPayload type
// switch in transport/wirecodec — as the registry of wire types and checks
// it both ways, making any gap a build-time error:
//
//   - every tag arm has an instance in the round-trip audit list
//     (wirePayloads in the transport external test package), or its case
//     line carries //wire:noaudit <reason> (a type exercised by its own
//     round-trip tests instead);
//   - every statically typed payload handed to the transport (Send,
//     Multicast, SendBatch, and the host's wrappers) has a tag arm.
//
// The TCP writer drops envelopes whose encoding fails, so a missing tag arm
// otherwise surfaces only as silent liveness loss in deployment.
var WireReg = &Analyzer{
	Name:   "wirereg",
	Doc:    "sent wire types must have a binary-codec tag arm, and every tag arm must be round-trip audited",
	Module: true,
	Run:    runWireReg,
}

type tagArm struct {
	pos     token.Pos
	noaudit bool
}

func runWireReg(pass *Pass) error {
	rootFiles := rootFileSet(pass)

	tagArms := make(map[*types.TypeName]tagArm)
	audited := make(map[*types.TypeName]bool)
	var sent []struct {
		tn  *types.TypeName
		pos token.Pos
	}

	for _, pkg := range pass.All {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(node ast.Node) bool {
				switch x := node.(type) {
				case *ast.FuncDecl:
					switch {
					case x.Name.Name == "appendPayload" && pkg.Path == pass.ModulePath+"/internal/transport/wirecodec":
						collectTagArms(pkg, x, newLineDirectives(pass.Fset, pkg.Files), tagArms)
					case x.Name.Name == "wirePayloads" && pkg.XTest:
						ast.Inspect(x, func(n ast.Node) bool {
							if tn := pointerStructTypeName(pass, pkg.Info, n); tn != nil {
								audited[tn] = true
							}
							return true
						})
					}
				case *ast.CallExpr:
					callee := calleeOf(pkg.Info, x)
					// Statically typed payloads handed to the transport:
					// Endpoint.Send / Multicast / SendBatch and the host's
					// wrappers.
					if callee != nil && isSendLike(pass, callee) && !pkg.XTest {
						for _, arg := range x.Args {
							if tn := namedTypeOf(pkg.Info, arg); tn != nil && isModuleType(pass, tn) {
								sent = append(sent, struct {
									tn  *types.TypeName
									pos token.Pos
								}{tn, arg.Pos()})
							}
						}
					}
				}
				return true
			})
		}
	}

	report := func(pos token.Pos, format string, args ...any) {
		if rootFiles[pass.Fset.Position(pos).Filename] {
			pass.Reportf(pos, format, args...)
		}
	}

	for tn, arm := range tagArms {
		if !audited[tn] && !arm.noaudit {
			report(arm.pos, "wire type %s is not in the wirePayloads round-trip audit (transport/wire_roundtrip_test.go): "+
				"add an instance there or annotate the case line //wire:noaudit <reason>", tn.Name())
		}
	}
	for _, s := range sent {
		if _, ok := tagArms[s.tn]; !ok {
			report(s.pos, "%s is sent over a transport.Endpoint but has no tag arm in wirecodec appendPayload: "+
				"the TCP plane drops it; add a tag (transport/wirecodec/types.go)", s.tn.Name())
		}
	}
	return nil
}

// collectTagArms records the *T case types of appendPayload's type switch and
// whether their case line opts out of the audit.
func collectTagArms(pkg *Package, fd *ast.FuncDecl, ld *lineDirectives, arms map[*types.TypeName]tagArm) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSwitchStmt)
		if !ok {
			return true
		}
		for _, clause := range ts.Body.List {
			cc, ok := clause.(*ast.CaseClause)
			if !ok {
				continue
			}
			for _, texpr := range cc.List {
				tv, ok := pkg.Info.Types[texpr]
				if !ok || !tv.IsType() {
					continue
				}
				if tn := typeNameOf(tv.Type); tn != nil {
					if _, seen := arms[tn]; !seen {
						arms[tn] = tagArm{pos: texpr.Pos(), noaudit: ld.at("noaudit", texpr.Pos())}
					}
				}
			}
		}
		return false
	})
}

// namedTypeOf resolves an expression's static type to the underlying named
// struct's TypeName, unwrapping one pointer.
func namedTypeOf(info *types.Info, e ast.Expr) *types.TypeName {
	tv, ok := info.Types[e]
	if !ok {
		return nil
	}
	return typeNameOf(tv.Type)
}

// pointerStructTypeName matches &T{...} expressions and returns T's name.
func pointerStructTypeName(pass *Pass, info *types.Info, n ast.Node) *types.TypeName {
	ue, ok := n.(*ast.UnaryExpr)
	if !ok || ue.Op != token.AND {
		return nil
	}
	if _, ok := ast.Unparen(ue.X).(*ast.CompositeLit); !ok {
		return nil
	}
	return namedTypeOf(info, ue)
}

// typeNameOf unwraps pointers and returns the named type's TypeName, if the
// type is a named struct.
func typeNameOf(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named.Obj()
}

// isModuleType reports whether the type is declared inside this module.
func isModuleType(pass *Pass, tn *types.TypeName) bool {
	return tn.Pkg() != nil &&
		(tn.Pkg().Path() == pass.ModulePath ||
			len(tn.Pkg().Path()) > len(pass.ModulePath) && tn.Pkg().Path()[:len(pass.ModulePath)+1] == pass.ModulePath+"/")
}

// isSendLike reports whether fn hands payloads to the wire: the transport
// package's Send/Multicast/SendBatch (and Endpoint interface methods of the
// same names) or the host's forwarding wrappers.
func isSendLike(pass *Pass, fn *types.Func) bool {
	switch fn.Name() {
	case "Send", "Multicast", "SendBatch":
	default:
		return false
	}
	if fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case pass.ModulePath + "/internal/transport":
		return true
	case pass.ModulePath + "/internal/host":
		return isHostMethod(pass.ModulePath, fn)
	}
	return false
}
