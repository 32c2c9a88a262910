package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The offline build cannot vendor golang.org/x/tools/go/packages, so the
// analyzers load the program themselves: each package directory is parsed
// with go/parser and type-checked with go/types, module-internal imports
// (abstractbft/...) resolve recursively through the same loader, and the
// standard library loads from the compiler's export data through the gc
// importer (which asks the go command for it). One FileSet and one memoized
// loader give the whole program a single consistent type identity, which the
// cross-package analyzers (locknest's call graph, wirereg's registries) rely
// on.

// A Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("abstractbft/internal/host"); external test
	// packages get the suffix "_test".
	Path string
	// Dir is the directory the sources live in.
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// XTest marks an external test package (package foo_test).
	XTest bool
}

// A Program is the result of loading: the root packages named by the load
// patterns plus every dependency, sharing one FileSet.
type Program struct {
	Fset       *token.FileSet
	Roots      []*Package
	All        []*Package
	ModulePath string
	ModuleRoot string
}

type loader struct {
	fset       *token.FileSet
	moduleRoot string
	modulePath string
	std        types.Importer
	memo       map[string]*Package // by absolute directory
	loading    map[string]bool
	all        []*Package
}

// Load parses and type-checks the packages matched by patterns (directory
// paths relative to dir, or "./..." for the whole module) together with
// their module-internal dependencies. External test packages of matched
// directories are loaded as additional roots; in-package test files are not
// loaded (nothing the analyzers check lives there, and skipping them keeps
// the dependency graph acyclic).
func Load(dir string, patterns []string) (*Program, error) {
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	moduleRoot, modulePath, err := findModule(absDir)
	if err != nil {
		return nil, err
	}
	l := &loader{
		fset:       token.NewFileSet(),
		moduleRoot: moduleRoot,
		modulePath: modulePath,
		memo:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}
	l.std = importer.ForCompiler(l.fset, "gc", nil)

	var dirs []string
	seen := map[string]bool{}
	addDir := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			walked, err := goDirs(moduleRoot)
			if err != nil {
				return nil, err
			}
			for _, d := range walked {
				addDir(d)
			}
		case strings.HasSuffix(pat, "/..."):
			walked, err := goDirs(joinPattern(absDir, strings.TrimSuffix(pat, "/...")))
			if err != nil {
				return nil, err
			}
			for _, d := range walked {
				addDir(d)
			}
		default:
			addDir(joinPattern(absDir, pat))
		}
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("no packages matched %v", patterns)
	}

	prog := &Program{Fset: l.fset, ModulePath: modulePath, ModuleRoot: moduleRoot}
	var loadErrs []error
	for _, d := range dirs {
		pkg, err := l.pkgForDir(d)
		if err != nil {
			loadErrs = append(loadErrs, err)
			continue
		}
		if pkg != nil {
			prog.Roots = append(prog.Roots, pkg)
		}
		xpkg, err := l.xtestForDir(d)
		if err != nil {
			loadErrs = append(loadErrs, err)
			continue
		}
		if xpkg != nil {
			prog.Roots = append(prog.Roots, xpkg)
		}
	}
	if len(loadErrs) > 0 {
		return nil, errors.Join(loadErrs...)
	}
	prog.All = l.all
	return prog, nil
}

// joinPattern resolves a (possibly relative) directory pattern against base.
func joinPattern(base, pat string) string {
	if filepath.IsAbs(pat) {
		return pat
	}
	return filepath.Join(base, pat)
}

// findModule walks up from dir to the enclosing go.mod.
func findModule(dir string) (root, path string, err error) {
	for d := dir; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("no go.mod above %s", dir)
		}
	}
}

// goDirs lists directories under root containing .go files, skipping
// hidden directories and testdata trees (fixtures load only by explicit
// pattern).
func goDirs(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			dir := filepath.Dir(path)
			if len(out) == 0 || out[len(out)-1] != dir {
				out = append(out, dir)
			}
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}

// importPathFor maps a directory to its import path within the module.
func (l *loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.moduleRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("directory %s is outside module %s", dir, l.moduleRoot)
	}
	if rel == "." {
		return l.modulePath, nil
	}
	return l.modulePath + "/" + filepath.ToSlash(rel), nil
}

// Import implements types.Importer: module-internal paths load recursively,
// everything else (the standard library) comes from the gc importer's
// export data.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		pkg, err := l.pkgForDir(filepath.Join(l.moduleRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("no Go files in %s", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// pkgForDir loads the non-test package in dir (nil if the directory has
// only test files), memoized.
func (l *loader) pkgForDir(dir string) (*Package, error) {
	dir = filepath.Clean(dir)
	if pkg, ok := l.memo[dir]; ok {
		return pkg, nil
	}
	if l.loading[dir] {
		return nil, fmt.Errorf("import cycle through %s", dir)
	}
	l.loading[dir] = true
	defer delete(l.loading, dir)

	importPath, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	files, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		l.memo[dir] = nil
		return nil, nil
	}
	pkg, err := l.check(importPath, dir, files, false)
	if err != nil {
		return nil, err
	}
	l.memo[dir] = pkg
	return pkg, nil
}

// xtestForDir loads the external test package of dir, if any.
func (l *loader) xtestForDir(dir string) (*Package, error) {
	dir = filepath.Clean(dir)
	files, err := l.parseDir(dir, true)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, nil
	}
	importPath, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	return l.check(importPath+"_test", dir, files, true)
}

// parseDir parses the directory's sources: with xtest false the non-test
// files, with xtest true the _test.go files declaring an external test
// package.
func (l *loader) parseDir(dir string, xtest bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") != xtest {
			continue
		}
		// The build's view of the directory: a package split by GOOS
		// (internal/clock) declares the same names once per platform.
		if match, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !match {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if xtest && !strings.HasSuffix(f.Name.Name, "_test") {
			continue // in-package test file
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks one package.
func (l *loader) check(importPath, dir string, files []*ast.File, xtest bool) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, errors.Join(typeErrs...))
	}
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	pkg := &Package{Path: importPath, Dir: dir, Files: files, Types: tpkg, Info: info, XTest: xtest}
	l.all = append(l.all, pkg)
	return pkg, nil
}
