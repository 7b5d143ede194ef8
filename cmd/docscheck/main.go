// Command docscheck keeps the documentation from drifting: it resolves
// every relative markdown link in README.md and docs/*.md against the
// working tree, and requires a doc comment on every exported
// declaration of the packages whose APIs docs/SERVER.md and
// docs/CHECKPOINT.md describe (docPackages). It prints each violation
// and exits non-zero if there are any; `make docscheck` wires it into
// `make check` and CI.
//
// Usage:
//
//	docscheck [-root DIR]
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	bad := checkLinks(*root)
	for _, pkg := range docPackages {
		bad += checkDocComments(filepath.Join(*root, "internal", pkg))
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", bad)
		os.Exit(1)
	}
	fmt.Println("docscheck: OK")
}

// docPackages are the packages under internal/ whose exported
// declarations must all carry a doc comment: the server, the proxy, the
// checkpoint log, the admission layer and the snapshot codec.
var docPackages = []string{"serve", "proxy", "ckptlog", "bdr", "snap"}

// linkRe matches inline markdown links [text](target). Reference-style
// links and autolinks are out of scope; the repo doesn't use them.
var linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// checkLinks resolves every relative link in README.md and docs/*.md
// against the tree and reports targets that don't exist.
func checkLinks(root string) int {
	files := []string{filepath.Join(root, "README.md")}
	docs, _ := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	files = append(files, docs...)

	bad := 0
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			bad++
			continue
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
					continue // external; existence is not ours to check
				}
				target, _, _ = strings.Cut(target, "#")
				if target == "" {
					continue // pure in-page anchor
				}
				resolved := filepath.Join(filepath.Dir(f), target)
				if _, err := os.Stat(resolved); err != nil {
					fmt.Fprintf(os.Stderr, "%s:%d: broken link %q\n", f, i+1, m[1])
					bad++
				}
			}
		}
	}
	return bad
}

// checkDocComments parses every non-test file of the package directory
// and reports exported declarations without a doc comment. A const or
// var block's comment covers the whole block; a field or interface
// method is covered by its parent type's comment.
func checkDocComments(dir string) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		return 1
	}

	bad := 0
	report := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		fmt.Fprintf(os.Stderr, "%s:%d: exported %s has no doc comment\n", p.Filename, p.Line, what)
		bad++
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil && !hasUnexportedRecv(d) {
						report(d.Pos(), "func "+d.Name.Name)
					}
				case *ast.GenDecl:
					if d.Tok == token.IMPORT {
						continue
					}
					blockDoc := d.Doc != nil
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							if sp.Name.IsExported() && sp.Doc == nil && !blockDoc {
								report(sp.Pos(), "type "+sp.Name.Name)
							}
						case *ast.ValueSpec:
							if blockDoc || sp.Doc != nil || sp.Comment != nil {
								continue
							}
							for _, n := range sp.Names {
								if n.IsExported() {
									report(n.Pos(), d.Tok.String()+" "+n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return bad
}

// hasUnexportedRecv reports whether f is a method on an unexported
// type: exported methods of unexported types aren't part of the
// package's godoc surface.
func hasUnexportedRecv(f *ast.FuncDecl) bool {
	if f.Recv == nil || len(f.Recv.List) == 0 {
		return false
	}
	t := f.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return !id.IsExported()
	}
	return false
}
