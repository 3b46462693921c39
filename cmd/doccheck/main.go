// Command doccheck is the repository's godoc and API-shape gate: a
// dependency-free, revive/golint-style check that every package has a
// package comment and every exported identifier — types, functions,
// methods, consts, vars — carries a doc comment. CI runs it next to go
// vet; it exits non-zero and prints file:line findings when documentation
// is missing.
//
// It additionally enforces the context-first contract of the public
// serving, durability and cluster surfaces: in the root package (beas.go,
// persistence.go), internal/serve, internal/persist and internal/cluster,
// every exported function or method whose name says it performs I/O or
// execution (Query*, Execute*, Plan*, Open*, Answer*, Stream*, Run*,
// Serve*, Fetch*, Discover*, Save*, Load*, Checkpoint*, Snapshot*,
// Insert*, Delete*, Apply*, Dial*, Join*) must take a context.Context as
// its first parameter, so cancellation and deadlines can always propagate
// into the executor, the snapshot/WAL writers and the remote fetch RPCs.
// Deprecated shims (a "Deprecated:" doc paragraph) and the explicit
// allowlist of stats/constructor accessors are exempt.
//
// Usage:
//
//	doccheck [root]   # default root: .
//
// Test files, testdata directories and generated files are skipped. A doc
// comment on a const/var/type group covers the whole group, matching godoc
// rendering.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	findings, err := check(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d findings (missing doc comments or context-first violations)\n", len(findings))
		os.Exit(1)
	}
}

// check walks every non-test Go file under root and returns one finding
// per undocumented exported identifier, sorted by position.
func check(root string) ([]string, error) {
	fset := token.NewFileSet()
	// pkgDoc[dir] reports whether some file of the directory's package
	// carries a package comment.
	pkgDoc := map[string]bool{}
	pkgFirst := map[string]token.Pos{}
	var findings []string

	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == ".git" || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if isGenerated(file) {
			return nil
		}
		dir := filepath.Dir(path)
		if file.Doc != nil {
			pkgDoc[dir] = true
		}
		if _, ok := pkgFirst[dir]; !ok {
			pkgFirst[dir] = file.Package
		}
		findings = append(findings, checkFile(fset, file)...)
		if isContextFirstFile(root, path) {
			findings = append(findings, checkContextFirst(fset, file)...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for dir, pos := range pkgFirst {
		if !pkgDoc[dir] {
			findings = append(findings, fmt.Sprintf("%s: package %s has no package comment",
				fset.Position(pos), dir))
		}
	}
	sort.Strings(findings)
	return findings, nil
}

// generatedRe is the standard generated-code marker (go.dev convention):
// a line-comment before the package clause reading
// "// Code generated ... DO NOT EDIT.".
var generatedRe = regexp.MustCompile(`^// Code generated .* DO NOT EDIT\.$`)

// isGenerated reports whether the file carries the generated-code marker
// before its package clause.
func isGenerated(file *ast.File) bool {
	for _, cg := range file.Comments {
		if cg.Pos() >= file.Package {
			break
		}
		for _, c := range cg.List {
			if generatedRe.MatchString(c.Text) {
				return true
			}
		}
	}
	return false
}

// checkFile returns findings for the file's exported declarations.
func checkFile(fset *token.FileSet, file *ast.File) []string {
	var out []string
	report := func(pos token.Pos, what, name string) {
		out = append(out, fmt.Sprintf("%s: exported %s %s has no doc comment", fset.Position(pos), what, name))
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			what := "function"
			name := d.Name.Name
			if d.Recv != nil {
				what = "method"
				name = recvName(d.Recv) + "." + name
			}
			report(d.Pos(), what, name)
		case *ast.GenDecl:
			if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					// A group doc (or a per-spec doc or trailing comment)
					// covers its names, as godoc renders it.
					if d.Doc != nil || s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							report(n.Pos(), strings.ToLower(d.Tok.String()), n.Name)
						}
					}
				}
			}
		}
	}
	return out
}

// ctxPrefixes are the verb prefixes marking an exported function as
// performing I/O or execution: such functions must be context-first in the
// files isContextFirstFile selects. A prefix matches on a word boundary
// only (Query and QuerySQL match "Query"; Queryish does not).
var ctxPrefixes = []string{
	"Query", "Execute", "Plan", "Open", "Answer", "Stream", "Run", "Serve", "Fetch", "Discover",
	"Save", "Load", "Checkpoint", "Snapshot", "Insert", "Delete", "Apply", "Dial", "Join",
}

// ctxAllowlist exempts exported names that match a verb prefix but neither
// execute nor fetch: counter snapshots and the synchronous index-building
// constructors whose pre-context signatures are part of the stable API
// (the cancellable discovery path is OpenDiscovered, which is checked).
var ctxAllowlist = map[string]bool{
	"Open":           true, // constructor over prebuilt indices
	"OpenAt":         true, // synchronous At construction
	"PlanCacheStats": true, // stats snapshot
	"QueryStats":     true, // stats snapshot
}

// isContextFirstFile reports whether the file belongs to the public
// serving or durability surface held to the context-first contract: every
// root-package file and everything in internal/serve, internal/persist,
// internal/cluster (remote fetches must always be cancellable) and
// internal/obs (the observability layer rides on every serving path, so
// anything it executes must be cancellable too).
func isContextFirstFile(root, path string) bool {
	rel, err := filepath.Rel(root, path)
	if err != nil {
		return false
	}
	rel = filepath.ToSlash(rel)
	return !strings.Contains(rel, "/") ||
		strings.HasPrefix(rel, "internal/serve/") ||
		strings.HasPrefix(rel, "internal/persist/") ||
		strings.HasPrefix(rel, "internal/cluster/") ||
		strings.HasPrefix(rel, "internal/obs/")
}

// matchesCtxPrefix reports whether the name starts with an execution verb
// on a word boundary.
func matchesCtxPrefix(name string) bool {
	for _, p := range ctxPrefixes {
		if !strings.HasPrefix(name, p) {
			continue
		}
		rest := name[len(p):]
		if rest == "" || rest[0] >= 'A' && rest[0] <= 'Z' || rest[0] >= '0' && rest[0] <= '9' {
			return true
		}
	}
	return false
}

// isDeprecated reports whether the doc comment carries a "Deprecated:"
// marker (the standard shim exemption).
func isDeprecated(doc *ast.CommentGroup) bool {
	return doc != nil && strings.Contains(doc.Text(), "Deprecated:")
}

// firstParamIsContext reports whether the function's first parameter is
// context.Context.
func firstParamIsContext(ft *ast.FuncType) bool {
	if ft.Params == nil || len(ft.Params.List) == 0 {
		return false
	}
	sel, ok := ft.Params.List[0].Type.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "context" && sel.Sel.Name == "Context"
}

// checkContextFirst returns findings for exported execution/I-O functions
// that lack a context.Context first parameter.
func checkContextFirst(fset *token.FileSet, file *ast.File) []string {
	var out []string
	for _, decl := range file.Decls {
		d, ok := decl.(*ast.FuncDecl)
		if !ok || !d.Name.IsExported() {
			continue
		}
		name := d.Name.Name
		if !matchesCtxPrefix(name) || ctxAllowlist[name] || isDeprecated(d.Doc) {
			continue
		}
		if firstParamIsContext(d.Type) {
			continue
		}
		qual := name
		if d.Recv != nil {
			qual = recvName(d.Recv) + "." + name
		}
		out = append(out, fmt.Sprintf(
			"%s: exported function %s performs I/O or execution but lacks a context.Context first parameter (context-first API; add ctx, mark Deprecated:, or allowlist in cmd/doccheck)",
			fset.Position(d.Pos()), qual))
	}
	return out
}

// recvName renders a method receiver's base type name.
func recvName(fl *ast.FieldList) string {
	if len(fl.List) == 0 {
		return "?"
	}
	t := fl.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
