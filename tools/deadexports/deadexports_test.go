// Package deadexports holds one test: it fails when an exported function or
// method declared under internal/ is called only from tests. Such a function
// is surface the product never runs, yet every reader of the package must
// still learn it. The package has no non-test code, so the check runs as
// part of `go test ./...`.
//
// The scan is by name over the syntax trees of every non-test .go file in
// the repository, perfbench/ included: a declaration counts as used when
// any non-test code other than the declaration itself mentions its name.
// That errs towards "used" (a method shares its name with every other
// method of that name), never towards flagging live code.
package deadexports

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// interfaceMethods are method names the standard library calls through its
// own interfaces (fmt.Stringer, error, errors.Unwrap, json.Marshaler,
// http.Handler, sort.Interface, flag.Value, io.Reader/Writer/Closer), so no
// file in this repository need mention them.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Len": true, "Less": true, "Swap": true, "Set": true,
	"Read": true, "Write": true, "Close": true,
}

// keptFakes are test-only exports kept on purpose, each with its reason.
// Keys are "package.Name" for a function, "package.Type.Method" for a method.
var keptFakes = map[string]string{
	"fm.NewScripted": "the shared scripted-model test double of every package that drives an FM; " +
		"it lives in fm because it charges fm's unexported usage accounting",
}

type decl struct {
	key  string // package.Name or package.Type.Method
	name string
	pos  string // path:line relative to the repository root
}

func TestNoTestOnlyExports(t *testing.T) {
	root := moduleRoot(t)
	dead := scan(t, root)
	for _, d := range dead {
		t.Errorf("%s: exported %s has no non-test caller; delete it, "+
			"move it into a _test.go file, or list it in keptFakes with a reason", d.pos, d.key)
	}
}

// scan returns the exported functions and methods under internal/ whose
// name no non-test code mentions, sorted by position.
func scan(t *testing.T, root string) []decl {
	t.Helper()
	fset := token.NewFileSet()
	var decls []decl
	mentioned := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			// The go tool ignores these directories too.
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := make(map[*ast.Ident]bool)
		if strings.HasPrefix(rel, "internal/") {
			for _, dd := range f.Decls {
				fd, ok := dd.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				declared[fd.Name] = true
				key := f.Name.Name + "." + fd.Name.Name
				if fd.Recv != nil {
					if interfaceMethods[fd.Name.Name] {
						continue
					}
					key = f.Name.Name + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				decls = append(decls, decl{
					key:  key,
					name: fd.Name.Name,
					pos:  rel + ":" + strconv.Itoa(fset.Position(fd.Pos()).Line),
				})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				mentioned[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatalf("no exported declarations found under %s/internal; wrong root?", root)
	}
	var dead []decl
	kept := make(map[string]bool)
	for _, d := range decls {
		if _, ok := keptFakes[d.key]; ok {
			kept[d.key] = true
			continue
		}
		if !mentioned[d.name] {
			dead = append(dead, d)
		}
	}
	for key := range keptFakes {
		if !kept[key] {
			t.Errorf("keptFakes lists %s, which is no longer declared under internal/", key)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].pos < dead[j].pos })
	return dead
}

// recvType names a method's receiver type, without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// moduleRoot walks up from the test's directory to the go.mod of module
// smartfeat.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module smartfeat\n") {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod of module smartfeat not found above the test directory")
		}
		dir = parent
	}
}
