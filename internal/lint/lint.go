// Package lint is the repo's static-analysis plane: a small, self-contained
// analysis framework (mirroring the golang.org/x/tools/go/analysis API shape,
// which the offline build cannot vendor) plus the four abstractbft-specific
// analyzers that make the plane's historical footgun classes build-time
// errors:
//
//   - locknest:    re-entering the host lock from code that already runs
//     under it (the PR 1 R-Aliph self-deadlock class).
//   - wirereg:     sent wire types missing a binary-codec tag arm, and tag
//     arms missing round-trip audit membership.
//   - digestcover: exported wire-message fields silently excluded from
//     Digest() (agreement splits) or silently included (trace leaks).
//   - noalloc:     heap-allocating constructs inside functions annotated
//     //abstractbft:noalloc (the pinned hot paths).
//
// The annotation grammar the analyzers understand:
//
//	//abstractbft:noalloc            function must not heap-allocate
//	//abstractbft:alloc-ok <reason>  line-level opt-out inside a noalloc body
//	//abstractbft:lockheld           func/interface method/func field runs
//	                                 under the host lock
//	//abstractbft:locksafe <reason>  function audited: stops locknest
//	                                 traversal (e.g. hands off to a goroutine)
//	//wire:nodigest                  field deliberately excluded from Digest()
//	//wire:noaudit <reason>          tag arm audited outside wirePayloads()
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run executes the check. Per-package analyzers are invoked once per
	// root package with Pass.Pkg set; module analyzers (Module true) are
	// invoked once with Pass.Pkg nil and see the whole program.
	Run func(*Pass) error
	// Module marks whole-program analyzers (call graphs, cross-package
	// registries) that cannot be computed one package at a time.
	Module bool
}

// A Pass connects an Analyzer run to the loaded program.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Pkg is the package under analysis (nil for module analyzers).
	Pkg *Package
	// Roots are the packages named on the command line; module analyzers
	// should confine diagnostics to positions inside them.
	Roots []*Package
	// All is every loaded package, roots and dependencies alike.
	All []*Package
	// ModulePath is the module's import path prefix ("abstractbft").
	ModulePath string

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Position token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{LockNest, WireReg, DigestCover, NoAlloc}
}

// Run executes the given analyzers over prog and returns the diagnostics
// sorted by file position. Module analyzers run once; per-package analyzers
// run over every root package.
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		passes := []*Pass{}
		if a.Module {
			passes = append(passes, &Pass{Analyzer: a, Fset: prog.Fset, Roots: prog.Roots, All: prog.All, ModulePath: prog.ModulePath, diags: &diags})
		} else {
			for _, pkg := range prog.Roots {
				passes = append(passes, &Pass{Analyzer: a, Fset: prog.Fset, Pkg: pkg, Roots: prog.Roots, All: prog.All, ModulePath: prog.ModulePath, diags: &diags})
			}
		}
		for _, pass := range passes {
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Position, diags[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}

// ---- Directive parsing ----------------------------------------------------

// A Directive is one //abstractbft: or //wire: annotation.
type Directive struct {
	// Name is the directive without the prefix: "noalloc", "alloc-ok",
	// "lockheld", "locksafe", "nodigest", "noaudit".
	Name string
	// Args is the free-text remainder (a reason, usually).
	Args string
	Pos  token.Pos
}

// parseDirective parses one comment line; ok is false for ordinary comments.
func parseDirective(c *ast.Comment) (Directive, bool) {
	text := c.Text
	var rest string
	switch {
	case strings.HasPrefix(text, "//abstractbft:"):
		rest = text[len("//abstractbft:"):]
	case strings.HasPrefix(text, "//wire:"):
		rest = text[len("//wire:"):]
	default:
		return Directive{}, false
	}
	name, args, _ := strings.Cut(rest, " ")
	return Directive{Name: name, Args: strings.TrimSpace(args), Pos: c.Pos()}, true
}

// directivesIn returns the directives in a comment group.
func directivesIn(g *ast.CommentGroup) []Directive {
	if g == nil {
		return nil
	}
	var out []Directive
	for _, c := range g.List {
		if d, ok := parseDirective(c); ok {
			out = append(out, d)
		}
	}
	return out
}

// hasDirective reports whether any of the comment groups carries the named
// directive.
func hasDirective(name string, groups ...*ast.CommentGroup) bool {
	for _, g := range groups {
		for _, d := range directivesIn(g) {
			if d.Name == name {
				return true
			}
		}
	}
	return false
}

// lineDirectives maps source lines to the directives written on them, for
// line-level opt-outs (//abstractbft:alloc-ok, //wire:noaudit, ...) that ride
// as trailing comments or on the line directly above the construct they
// cover.
type lineDirectives struct {
	fset  *token.FileSet
	lines map[string]map[int][]Directive // filename -> line -> directives
}

func newLineDirectives(fset *token.FileSet, files []*ast.File) *lineDirectives {
	ld := &lineDirectives{fset: fset, lines: make(map[string]map[int][]Directive)}
	for _, f := range files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				d, ok := parseDirective(c)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				m := ld.lines[pos.Filename]
				if m == nil {
					m = make(map[int][]Directive)
					ld.lines[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], d)
			}
		}
	}
	return ld
}

// at reports whether the named directive covers pos: written on the same
// line (trailing comment) or on the line directly above.
func (ld *lineDirectives) at(name string, pos token.Pos) bool {
	p := ld.fset.Position(pos)
	for _, d := range ld.lines[p.Filename][p.Line] {
		if d.Name == name {
			return true
		}
	}
	for _, d := range ld.lines[p.Filename][p.Line-1] {
		if d.Name == name {
			return true
		}
	}
	return false
}
