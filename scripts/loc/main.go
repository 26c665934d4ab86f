// loc counts the repository's non-test Go lines and lists its dead
// exports. Run it from the repo root as `go run ./scripts/loc`.
//
// It prints the non-test lines of every package outside bench/ and their
// total. The transport test-support files (chaos.go, fault.go, poison.go)
// are counted apart: only tests call them, but tests in other packages
// need them, so they cannot live in _test.go files.
//
// It then lists every exported function and method under internal/ whose
// name appears in no non-test file except at its own declaration, a name
// scan over every non-test file of the repo, bench/ included. It exits 1
// when that list holds a name outside kept below, so scripts/ci.sh stops a
// dead export from coming back.
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// supportFiles are the transport files counted as test support.
var supportFiles = map[string]bool{
	"internal/transport/chaos.go":  true,
	"internal/transport/fault.go":  true,
	"internal/transport/poison.go": true,
}

// kept are the exports no binary calls that stay: what other packages'
// tests, and only they, call; the methods the standard library calls by
// interface; and the paper's leave-one-out parameter selection, which the
// λ path of ROADMAP item 9 is to run.
var kept = map[string]bool{
	"Chaos": true, "FailAfter": true, "FailEvery": true, "Poison": true,
	"Armed": true, "Negotiated": true, "CutRound": true, "Fleet": true,
	"Equal": true, "Unwrap": true, "CrossValidateConfigs": true,
}

type decl struct {
	pos  token.Position
	name string
}

func main() {
	fset := token.NewFileSet()
	lines := map[string]int{} // package dir -> non-test lines, outside bench/
	support := 0
	uses := map[string]int{} // identifier -> occurrences in non-test files
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		path = filepath.ToSlash(path)
		if strings.HasPrefix(path, "internal/") {
			for _, fd := range f.Decls {
				if fn, ok := fd.(*ast.FuncDecl); ok && fn.Name.IsExported() {
					decls = append(decls, decl{fset.Position(fn.Pos()), fn.Name.Name})
				}
			}
		}
		n := bytes.Count(src, []byte("\n"))
		switch {
		case strings.HasPrefix(path, "bench/"):
		case supportFiles[path]:
			support += n
		default:
			lines[filepath.ToSlash(filepath.Dir(path))] += n
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "loc: %v (run from the repo root)\n", err)
		os.Exit(1)
	}

	dirs := make([]string, 0, len(lines))
	total := 0
	for dir, n := range lines {
		dirs = append(dirs, dir)
		total += n
	}
	sort.Strings(dirs)
	fmt.Println("non-test Go lines outside bench/:")
	for _, dir := range dirs {
		fmt.Printf("  %-28s %6d\n", dir, lines[dir])
	}
	fmt.Printf("  %-28s %6d\n", "total", total)
	fmt.Printf("  %-28s %6d\n", "transport test support", support)

	declared := map[string]int{}
	for _, d := range decls {
		declared[d.name]++
	}
	fmt.Println("exports under internal/ named nowhere but their declaration:")
	bad := false
	for _, d := range decls {
		if uses[d.name] > declared[d.name] {
			continue
		}
		note := ""
		if kept[d.name] {
			note = " (kept)"
		} else {
			bad = true
		}
		fmt.Printf("  %s:%d %s%s\n", d.pos.Filename, d.pos.Line, d.name, note)
	}
	if bad {
		fmt.Fprintln(os.Stderr, "loc: a dead export: delete it, or move it into the _test.go file that uses it")
		os.Exit(1)
	}
}
