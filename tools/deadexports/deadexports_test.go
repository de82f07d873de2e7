// Package deadexports holds the dead-surface gate: it fails when a function,
// method or struct field declared under internal/ is reached only by tests. Such surface is code the product never runs, yet every reader of
// the package must still learn it. The package has no non-test code, so the
// check runs as part of `go test ./...`.
//
// The scan type-checks every non-test .go file of every module in the
// repository (perfbench/ included) with go/types and resolves each mention
// to its declaration, so two methods that share a name are told apart.
// Standard-library packages load from the export data `go list -export`
// reports, which keeps the scan to a few seconds.
//
//   - A function or method, exported or not (main and init aside), is used
//     when non-test code outside its own body mentions it. A method is also
//     used when non-test code calls a method of the same name on an
//     interface that its receiver type satisfies (promotion through
//     embedding included), or when its receiver type implements one of the
//     standard interfaces in stdInterfaces, whose methods the standard
//     library calls for the program.
//   - A struct field, exported or not, is used when non-test code sets it:
//     names it in a composite literal (keyed or positional), assigns,
//     increments or decrements it, takes its address, calls a
//     pointer-receiver method on it, or decodes a JSON document into a
//     value that holds it (exported fields only, as encoding/json does).
//   - A default fill does not set a field. A function that holds a struct
//     as a parameter, as its receiver or as a local copied from one
//     (cfg := *c) and assigns its field F inside an if whose condition
//     tests that F is zero (==, <= or < against the zero value) only fills
//     F's default; the caller never chose it. Only a value built from
//     constants, calls, package-level names and the struct itself is a
//     default: one that reads another parameter or local (a first-error
//     latch, if r.Err == nil { r.Err = err }) sets F. A fill that copies
//     another field is a copy, as below.
//   - A copy inherits. A field set only by copying another field (F: x.G,
//     y.F = x.G) counts as set only when G is, worked out to a fixpoint.
//     Fields of packages outside the scan count as set.
package deadexports

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// keptFakes is test-only surface kept on purpose, each entry with its
// reason. Keys are "pkg.Name" for a function, "pkg.Type.Method" for a method
// and "pkg.Type.Field" for a struct field.
var keptFakes = map[string]string{
	"fm.NewScripted": "the shared scripted-model test double of every package that drives an FM; " +
		"it lives in fm because it charges fm's unexported usage accounting",
	"ml.Forest.MaxBins":            forestKnob,
	"ml.Forest.HistMinNode":        forestKnob,
	"ml.TreeConfig.MaxDepth":       forestKnob,
	"ml.TreeConfig.MinSamplesLeaf": forestKnob,
	"ml.TreeConfig.MaxBins":        forestKnob,
	"ml.TreeConfig.HistMinNode":    forestKnob,
}

// forestKnob is the reason the tree and forest growth settings stay:
// reference implementations that tests compare against are safety code.
const forestKnob = "only the kernel-vs-reference tests vary it: they pin the tree's split search " +
	"to the exact sort-scan reference at the edges of its depth, leaf-size, bin and node-size settings"

// stdInterfaces declares the standard-library interfaces whose methods the
// standard library itself calls (fmt's verbs, errors.Is/As/Unwrap,
// encoding/json, sort, net/http, flag, io), so no file in the repository
// need mention those methods. It is type-checked with the scanned code.
const stdInterfaces = `package std

import (
	"container/heap"
	"encoding"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
)

type (
	_ fmt.Stringer
	_ fmt.GoStringer
	_ fmt.Formatter
	_ error
	_ interface{ Unwrap() error }
	_ interface{ Unwrap() []error }
	_ interface{ Is(error) bool }
	_ interface{ As(any) bool }
	_ json.Marshaler
	_ json.Unmarshaler
	_ encoding.TextMarshaler
	_ encoding.TextUnmarshaler
	_ sort.Interface
	_ heap.Interface
	_ http.Handler
	_ http.Flusher
	_ flag.Value
	_ flag.Getter
	_ io.Reader
	_ io.Writer
	_ io.Closer
)
`

func TestNoTestOnlyExports(t *testing.T) {
	start := time.Now()
	dead, err := scan(moduleRoot(t), keptFakes)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("scan took %s", time.Since(start).Round(time.Millisecond))
	for _, d := range dead {
		t.Errorf("%s: %s; delete it, move it into a _test.go file, or list it in keptFakes with a reason", d.pos, d.msg)
	}
}

func TestKeptFakesHaveReasons(t *testing.T) {
	for key, reason := range keptFakes {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("keptFakes[%q] gives no reason", key)
		}
	}
}

// finding is one piece of dead surface, or a stale exception.
type finding struct {
	key string // pkg.Name, pkg.Type.Method or pkg.Type.Field
	pos string // path:line relative to the repository root
	msg string
}

// decl is one declaration under internal/ that the scan checks.
type decl struct {
	key   string
	pos   string
	field bool // a struct field (must be set), not a function (must be reached)
}

// pkg is one package of `go list -json` output.
type pkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Imports    []string
	Export     string
}

// checked is a type-checked module package.
type checked struct {
	rel   string // directory relative to the repository root
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// scan type-checks every module under root and returns the declarations
// under root/internal that only tests reach, plus every
// exception that matches no dead declaration, sorted by position.
func scan(root string, kept map[string]string) ([]finding, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mods, err := modules(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	stdFile, err := parser.ParseFile(fset, "std.go", stdInterfaces, 0)
	if err != nil {
		return nil, err
	}
	// One `go list` per module finds the packages in dependency order; one
	// more loads export data for the standard packages they and
	// stdInterfaces import.
	var order []pkg
	listed := make(map[string]bool)
	std := make(map[string]bool)
	for _, spec := range stdFile.Imports {
		std[strings.Trim(spec.Path.Value, `"`)] = true
	}
	for _, dir := range mods {
		pkgs, err := goList(dir, "-deps", "-json=ImportPath,Dir,GoFiles,Standard,Imports", "./...")
		if err != nil {
			return nil, err
		}
		standard := make(map[string]bool)
		for _, p := range pkgs {
			if p.Standard {
				standard[p.ImportPath] = true
			}
		}
		for _, p := range pkgs {
			if p.Standard || listed[p.ImportPath] {
				continue
			}
			listed[p.ImportPath] = true
			order = append(order, p)
			for _, imp := range p.Imports {
				if standard[imp] {
					std[imp] = true
				}
			}
		}
	}
	var stdPaths []string
	for p := range std {
		stdPaths = append(stdPaths, p)
	}
	sort.Strings(stdPaths)
	exports, err := goList(root, append([]string{"-export", "-json=ImportPath,Export"}, stdPaths...)...)
	if err != nil {
		return nil, err
	}
	exportFile := make(map[string]string)
	for _, p := range exports {
		exportFile[p.ImportPath] = p.Export
	}

	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exportFile[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	}).(types.ImporterFrom)
	byPath := make(map[string]*types.Package)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := byPath[path]; ok {
			return p, nil
		}
		return gc.ImportFrom(path, root, 0)
	})

	var pkgs []*checked
	for _, p := range order {
		c := &checked{info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}}
		if c.rel, err = filepath.Rel(root, p.Dir); err != nil {
			return nil, err
		}
		c.rel = filepath.ToSlash(c.rel)
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			c.files = append(c.files, f)
		}
		conf := types.Config{Importer: imp}
		if c.types, err = conf.Check(p.ImportPath, fset, c.files, c.info); err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", p.ImportPath, err)
		}
		byPath[p.ImportPath] = c.types
		pkgs = append(pkgs, c)
	}
	stdInfo := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue)}
	if _, err := (&types.Config{Importer: imp}).Check("std", fset, []*ast.File{stdFile}, stdInfo); err != nil {
		return nil, fmt.Errorf("type-checking the standard interfaces: %w", err)
	}

	s := &scanner{
		fset:      fset,
		decls:     make(map[types.Object]decl),
		used:      make(map[types.Object]bool),
		ifaceUsed: make(map[*types.Func]bool),
		decoders:  map[string]int{"encoding/json.Unmarshal": 1, "(*encoding/json.Decoder).Decode": 0},
		scanned:   make(map[*types.Package]bool),
	}
	for _, c := range pkgs {
		s.scanned[c.types] = true
	}
	for _, c := range pkgs {
		if strings.HasPrefix(c.rel, "internal/") {
			for _, f := range c.files {
				s.declare(c.info, f, root)
			}
		}
	}
	if len(s.decls) == 0 {
		return nil, fmt.Errorf("no declarations found under %s/internal; wrong root?", root)
	}
	for _, c := range pkgs {
		for _, f := range c.files {
			s.walk(c.info, f)
		}
	}
	s.markDecoded()
	s.markCopies()
	var named []*types.Named
	for _, c := range pkgs {
		for _, name := range c.types.Scope().Names() {
			if tn, ok := c.types.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() == nil {
					named = append(named, n)
				}
			}
		}
	}
	for _, spec := range stdFile.Decls[1].(*ast.GenDecl).Specs {
		iface := stdInfo.Types[spec.(*ast.TypeSpec).Type].Type.Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			s.ifaceUsed[iface.Method(i)] = true
		}
	}
	s.markImplementations(named)

	var out []finding
	matched := make(map[string]bool)
	for obj, d := range s.decls {
		if _, ok := kept[d.key]; ok {
			matched[d.key] = true
			if s.used[obj] {
				out = append(out, finding{d.key, d.pos, d.key + " is listed in keptFakes, but non-test code reaches it; drop the entry"})
			}
			continue
		}
		switch {
		case s.used[obj]:
		case d.field:
			out = append(out, finding{d.key, d.pos, "field " + d.key + " is set by no non-test code (default fills and copies of unset fields do not count)"})
		default:
			out = append(out, finding{d.key, d.pos, d.key + " has no non-test caller"})
		}
	}
	for key := range kept {
		if !matched[key] {
			out = append(out, finding{key, "keptFakes", "keptFakes lists " + key + ", which is no longer declared under internal/"})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		fi, li, _ := strings.Cut(out[i].pos, ":")
		fj, lj, _ := strings.Cut(out[j].pos, ":")
		if fi != fj {
			return fi < fj
		}
		if len(li) != len(lj) {
			return len(li) < len(lj)
		}
		if li != lj {
			return li < lj
		}
		return out[i].key < out[j].key
	})
	return out, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// scanner accumulates declarations and the marks non-test code leaves on
// them.
type scanner struct {
	fset      *token.FileSet
	decls     map[types.Object]decl
	used      map[types.Object]bool
	ifaceUsed map[*types.Func]bool // interface methods non-test code calls
	// decoders maps a JSON-decoding function to the index of its
	// destination argument; wrappers that pass a parameter on join it.
	decoders map[string]int
	calls    []call
	copies   []fieldCopy
	scanned  map[*types.Package]bool // the packages whose code the scan walks
}

// fieldCopy is one non-test assignment of field from's value to field to.
type fieldCopy struct{ from, to *types.Var }

// call is one non-test call to a function, kept to find JSON decoders.
type call struct {
	caller *types.Func // nil outside a function declaration
	callee *types.Func
	args   []ast.Expr
	info   *types.Info
}

// declare records the functions, methods, interface methods and struct
// fields of one file.
func (s *scanner) declare(info *types.Info, f *ast.File, root string) {
	pkg := f.Name.Name
	add := func(id *ast.Ident, key string, field bool) {
		if obj := info.Defs[id]; obj != nil && id.Name != "_" {
			rel, _ := filepath.Rel(root, s.fset.Position(id.Pos()).Filename)
			s.decls[obj] = decl{key: key, field: field,
				pos: filepath.ToSlash(rel) + ":" + strconv.Itoa(s.fset.Position(id.Pos()).Line)}
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main") {
				continue
			}
			key := pkg + "." + d.Name.Name
			if d.Recv != nil {
				key = pkg + "." + recvType(d.Recv.List[0].Type) + "." + d.Name.Name
			}
			add(d.Name, key, false)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				switch t := ts.Type.(type) {
				case *ast.StructType:
					for _, fld := range t.Fields.List {
						for _, id := range fld.Names {
							add(id, pkg+"."+ts.Name.Name+"."+id.Name, true)
						}
					}
				case *ast.InterfaceType:
					for _, m := range t.Methods.List {
						for _, id := range m.Names {
							add(id, pkg+"."+ts.Name.Name+"."+id.Name, false)
						}
					}
				}
			}
		}
	}
}

// walk marks what one non-test file reaches: every function it mentions
// outside that function's own body, every field it sets, and every
// interface method it calls. It records field copies for markCopies.
func (s *scanner) walk(info *types.Info, f *ast.File) {
	for _, d := range f.Decls {
		var self *types.Func
		var filled map[ast.Expr]bool
		if fd, ok := d.(*ast.FuncDecl); ok {
			self, _ = info.Defs[fd.Name].(*types.Func)
			filled = defaultFills(info, fd)
		}
		ast.Inspect(d, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if fn, ok := info.Uses[n].(*types.Func); ok && fn.Origin() != self {
					s.used[fn.Origin()] = true
					if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
						s.ifaceUsed[fn] = true
					}
				}
			case *ast.CompositeLit:
				st, ok := deref(info.TypeOf(n)).Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							s.setFrom(info.Uses[id], info, kv.Value, false)
						}
					} else if i < st.NumFields() {
						s.setFrom(st.Field(i), info, e, false)
					}
				}
			case *ast.AssignStmt:
				for i, e := range n.Lhs {
					field := fieldSel(info, e)
					if field == nil {
						s.setPath(info, e)
						continue
					}
					var rhs ast.Expr
					if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					}
					s.setFrom(field, info, rhs, filled[e])
					s.setPath(info, ast.Unparen(e).(*ast.SelectorExpr).X)
				}
			case *ast.IncDecStmt:
				s.setPath(info, n.X)
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					s.setPath(info, n.Key)
					s.setPath(info, n.Value)
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					s.setPath(info, n.X)
				}
			case *ast.SelectorExpr:
				// A pointer-receiver method on an addressable value takes
				// that value's address.
				if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
					if _, ptr := sel.Obj().(*types.Func).Signature().Recv().Type().(*types.Pointer); ptr {
						if _, isPtr := info.TypeOf(n.X).(*types.Pointer); !isPtr {
							s.setPath(info, n.X)
						}
					}
				}
			case *ast.CallExpr:
				if fn := callee(info, n.Fun); fn != nil {
					s.calls = append(s.calls, call{caller: self, callee: fn, args: n.Args, info: info})
				}
			}
			return true
		})
	}
}

// setField marks obj, if it is a struct field, as set.
func (s *scanner) setField(obj types.Object) {
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		s.used[v.Origin()] = true
	}
}

// setFrom sets field obj to value: when value is itself a field (x.G), obj
// only inherits G's mark; otherwise obj is set, unless the assignment only
// fills its default.
func (s *scanner) setFrom(obj types.Object, info *types.Info, value ast.Expr, fill bool) {
	to, ok := obj.(*types.Var)
	if !ok || !to.IsField() {
		return
	}
	if from := fieldSel(info, value); from != nil {
		s.copies = append(s.copies, fieldCopy{from.Origin(), to.Origin()})
	} else if !fill {
		s.setField(to)
	}
}

// markCopies marks every field copied from a set field, until no more
// marks follow. A field of a package the scan does not walk counts as set.
func (s *scanner) markCopies() {
	for grew := true; grew; {
		grew = false
		for _, c := range s.copies {
			if !s.used[c.to] && (s.used[c.from] || !s.scanned[c.from.Pkg()]) {
				s.used[c.to] = true
				grew = true
			}
		}
	}
}

// fieldSel returns the struct field e selects, if e is a field selector.
func fieldSel(info *types.Info, e ast.Expr) *types.Var {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if x := info.Selections[sel]; x != nil && x.Kind() == types.FieldVal {
		return x.Obj().(*types.Var)
	}
	return nil
}

// heldField is a field selected on a variable: cfg.MaxDepth.
type heldField struct {
	base  types.Object
	field *types.Var
}

// defaultFills returns the field assignments in fn that only fill a
// default: x.F = v inside an if whose condition tests x.F against its zero
// value, where x is a parameter or the receiver of fn, or a local copied
// from one (cfg := *c), and v is derived from constants and x alone.
func defaultFills(info *types.Info, fn *ast.FuncDecl) map[ast.Expr]bool {
	if fn.Body == nil {
		return nil
	}
	held := make(map[types.Object]bool)
	for _, list := range []*ast.FieldList{fn.Recv, fn.Type.Params} {
		if list == nil {
			continue
		}
		for _, f := range list.List {
			for _, id := range f.Names {
				held[info.Defs[id]] = true
			}
		}
	}
	onHeld := func(e ast.Expr) (heldField, bool) {
		field := fieldSel(info, e)
		if field == nil {
			return heldField{}, false
		}
		id, ok := ast.Unparen(e).(*ast.SelectorExpr).X.(*ast.Ident)
		if !ok || !held[info.Uses[id]] {
			return heldField{}, false
		}
		return heldField{info.Uses[id], field}, true
	}
	fills := make(map[ast.Expr]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				break
			}
			for i, r := range n.Rhs {
				if star, ok := r.(*ast.StarExpr); ok {
					r = star.X
				}
				if id, ok := r.(*ast.Ident); ok && held[info.Uses[id]] {
					if l, ok := n.Lhs[i].(*ast.Ident); ok && info.Defs[l] != nil {
						held[info.Defs[l]] = true
					}
				}
			}
		case *ast.IfStmt:
			zero := make(map[heldField]bool)
			ast.Inspect(n.Cond, func(c ast.Node) bool {
				b, ok := c.(*ast.BinaryExpr)
				if !ok {
					return true
				}
				x, y, op := b.X, b.Y, b.Op
				if isZero(info, x) {
					x, y, op = y, x, mirror[op]
				}
				if hf, ok := onHeld(x); ok && isZero(info, y) && (op == token.EQL || op == token.LEQ || op == token.LSS) {
					zero[hf] = true
				}
				return true
			})
			if len(zero) == 0 {
				break
			}
			ast.Inspect(n.Body, func(b ast.Node) bool {
				if a, ok := b.(*ast.AssignStmt); ok && a.Tok == token.ASSIGN && len(a.Lhs) == len(a.Rhs) {
					for i, l := range a.Lhs {
						if hf, ok := onHeld(l); ok && zero[hf] && derived(info, a.Rhs[i], hf.base) {
							fills[l] = true
						}
					}
				}
				return true
			})
		}
		return true
	})
	return fills
}

// derived reports whether e is built from constants, calls, package-level
// names and base itself only, as a default is: no other parameter or local
// variable feeds it. A value that does, as in a first-error latch
// (if r.Err == nil { r.Err = err }), is chosen by the caller.
func derived(info *types.Info, e ast.Expr, base types.Object) bool {
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		id, isIdent := n.(*ast.Ident)
		if !isIdent {
			return ok
		}
		if v, isVar := info.Uses[id].(*types.Var); isVar && v != base && !v.IsField() &&
			v.Parent() != nil && v.Parent() != v.Pkg().Scope() {
			ok = false
		}
		return ok
	})
	return ok
}

// mirror turns a comparison around: 0 < x is x > 0.
var mirror = map[token.Token]token.Token{
	token.EQL: token.EQL, token.NEQ: token.NEQ,
	token.LSS: token.GTR, token.GTR: token.LSS,
	token.LEQ: token.GEQ, token.GEQ: token.LEQ,
}

// isZero reports whether e is a zero value: a constant 0, "" or false,
// nil, or an empty composite literal.
func isZero(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if lit, ok := e.(*ast.CompositeLit); ok {
		return len(lit.Elts) == 0
	}
	tv := info.Types[e]
	if tv.IsNil() {
		return true
	}
	if tv.Value == nil {
		return false
	}
	switch v := tv.Value; v.Kind() {
	case constant.Bool:
		return !constant.BoolVal(v)
	case constant.String:
		return constant.StringVal(v) == ""
	case constant.Int, constant.Float, constant.Complex:
		return constant.Sign(v) == 0
	}
	return false
}

// setPath marks every field selected along an assigned or addressed
// expression: in a.B.C = x both B and C are set.
func (s *scanner) setPath(info *types.Info, e ast.Expr) {
	for e != nil {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				s.setField(sel.Obj())
			}
			e = x.X
		default:
			return
		}
	}
}

// markDecoded finds every function that decodes JSON into one of its
// arguments (encoding/json, and wrappers passing a parameter on), then marks
// every exported field of the types decoded into as set.
func (s *scanner) markDecoded() {
	for grew := true; grew; {
		grew = false
		for _, c := range s.calls {
			i, ok := s.decoders[c.callee.Origin().FullName()]
			if !ok || c.caller == nil || i >= len(c.args) {
				continue
			}
			id, ok := c.args[i].(*ast.Ident)
			if !ok {
				continue
			}
			params := c.caller.Signature().Params()
			for j := 0; j < params.Len(); j++ {
				if c.info.Uses[id] == params.At(j) {
					if _, known := s.decoders[c.caller.FullName()]; !known {
						s.decoders[c.caller.FullName()] = j
						grew = true
					}
				}
			}
		}
	}
	seen := make(map[types.Type]bool)
	for _, c := range s.calls {
		if i, ok := s.decoders[c.callee.Origin().FullName()]; ok && i < len(c.args) {
			s.decodeInto(c.info.TypeOf(c.args[i]), seen)
		}
	}
}

// decodeInto marks the fields encoding/json fills in a value of type t.
func (s *scanner) decodeInto(t types.Type, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		s.decodeInto(u.Elem(), seen)
	case *types.Slice:
		s.decodeInto(u.Elem(), seen)
	case *types.Array:
		s.decodeInto(u.Elem(), seen)
	case *types.Map:
		s.decodeInto(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if f.Exported() && reflect.StructTag(u.Tag(i)).Get("json") != "-" {
				s.setField(f)
				s.decodeInto(f.Type(), seen)
			}
		}
	}
}

// markImplementations marks, for every named type that satisfies an
// interface whose methods are called (by non-test code or by the standard
// library), the methods the interface reaches, promoted ones included.
func (s *scanner) markImplementations(named []*types.Named) {
	byIface := make(map[*types.Interface][]*types.Func)
	for m := range s.ifaceUsed {
		iface := m.Signature().Recv().Type().Underlying().(*types.Interface)
		byIface[iface] = append(byIface[iface], m)
	}
	for _, n := range named {
		var t types.Type = n
		if !types.IsInterface(n) {
			t = types.NewPointer(n)
		}
		for iface, methods := range byIface {
			if !types.Implements(t, iface) {
				continue
			}
			for _, m := range methods {
				if obj, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name()); obj != nil {
					s.used[obj.(*types.Func).Origin()] = true
				}
			}
		}
	}
}

// callee resolves a call's function expression to the function it names.
func callee(info *types.Info, fun ast.Expr) *types.Func {
	for {
		switch x := fun.(type) {
		case *ast.ParenExpr:
			fun = x.X
		case *ast.IndexExpr:
			fun = x.X
		case *ast.IndexListExpr:
			fun = x.X
		case *ast.SelectorExpr:
			fn, _ := info.Uses[x.Sel].(*types.Func)
			return fn
		case *ast.Ident:
			fn, _ := info.Uses[x].(*types.Func)
			return fn
		default:
			return nil
		}
	}
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
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

// modules lists root and the directory of every nested go.mod below it,
// skipping the directories the go tool ignores.
func modules(root string) ([]string, error) {
	var mods []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() && path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && name == "go.mod" {
			mods = append(mods, filepath.Dir(path))
		}
		return nil
	})
	return mods, err
}

// goList runs `go list` in dir and decodes its JSON stream.
func goList(dir string, args ...string) ([]pkg, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []pkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p pkg
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
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
