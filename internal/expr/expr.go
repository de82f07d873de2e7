package expr

import (
	"fmt"
	"math"
	"sort"
)

// Expr is a compiled arithmetic expression over named variables. Each
// variable is resolved to a slot at compile time, so evaluation reads
// values by index.
type Expr struct {
	root Node
	src  string
	vars []string // sorted distinct variable names; a name's index is its slot
	args int      // total call arguments: the size of env.args
}

// Compile parses and validates an expression string.
func Compile(src string) (*Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	root, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if trailing := p.next(); trailing.kind != tokEOF {
		return nil, p.errorf(trailing, "trailing %s", trailing.kind)
	}
	e := &Expr{root: root, src: src, args: p.args}
	slots := make(map[string]int)
	for _, v := range p.vars {
		if _, ok := slots[v.name]; !ok {
			slots[v.name] = 0
			e.vars = append(e.vars, v.name)
		}
	}
	sort.Strings(e.vars)
	for s, name := range e.vars {
		slots[name] = s
	}
	for _, v := range p.vars {
		v.slot = slots[v.name]
	}
	return e, nil
}

// MustCompile is Compile that panics on error; for use with known-good
// literals in tests and examples.
func MustCompile(src string) *Expr {
	e, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return e
}

// Source returns the original expression text.
func (e *Expr) Source() string { return e.src }

// String renders the parsed form with explicit grouping.
func (e *Expr) String() string { return e.root.String() }

// Vars returns the sorted distinct variable names the expression references.
func (e *Expr) Vars() []string { return append(make([]string, 0, len(e.vars)), e.vars...) }

// newEnv returns zeroed evaluation state sized for e.
func (e *Expr) newEnv() *env {
	return &env{vars: make([]float64, len(e.vars)), args: make([]float64, e.args)}
}

// Eval computes the expression for one variable binding. Missing variables
// and invalid operations (÷0, log of non-positive, …) yield NaN, which the
// dataframe layer treats as null.
func (e *Expr) Eval(vars map[string]float64) float64 {
	env := e.newEnv()
	for s, name := range e.vars {
		v, ok := vars[name]
		if !ok {
			v = math.NaN()
		}
		env.vars[s] = v
	}
	return e.root.eval(env)
}

// EvalRows evaluates the expression for each row of a column-oriented input:
// cols maps variable name → column slice. All referenced columns must be
// present and share a length. Rows where any referenced value is NaN produce
// NaN (null propagation). The columns are resolved to slots once, and each
// row is evaluated from one reused slot array.
func (e *Expr) EvalRows(cols map[string][]float64) ([]float64, error) {
	src := make([][]float64, len(e.vars))
	n := -1
	for s, name := range e.vars {
		col, ok := cols[name]
		if !ok {
			return nil, fmt.Errorf("expr: missing column %q for %q", name, e.src)
		}
		if n == -1 {
			n = len(col)
		} else if len(col) != n {
			return nil, fmt.Errorf("expr: column %q length %d != %d", name, len(col), n)
		}
		src[s] = col
	}
	env := e.newEnv()
	if n == -1 {
		// Constant expression: caller decides broadcast length; return a
		// single value.
		return []float64{e.root.eval(env)}, nil
	}
	out := make([]float64, n)
rows:
	for i := range out {
		for s, col := range src {
			v := col[i]
			if math.IsNaN(v) {
				out[i] = math.NaN()
				continue rows
			}
			env.vars[s] = v
		}
		out[i] = e.root.eval(env)
	}
	return out, nil
}
