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
	args int      // total call arguments: the size of a block's args
}

// Compile parses and validates an expression string.
func Compile(src string) (*Expr, error) {
	p := newParser(src)
	root, err := p.parseExpr()
	if err == nil {
		if trailing := p.next(); trailing.kind != tokEOF {
			err = p.errorf(trailing, "trailing %s", trailing.kind)
		}
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if err != nil {
		return nil, err
	}
	if d := printedDepth(root); d > maxDepth {
		return nil, fmt.Errorf("%w: prints %d levels deep, more than %d", ErrTooDeep, d, maxDepth)
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

// String renders the parsed form with explicit grouping.
func (e *Expr) String() string { return e.root.String() }

// Vars returns the sorted distinct variable names the expression references.
func (e *Expr) Vars() []string { return append(make([]string, 0, len(e.vars)), e.vars...) }

// newBlock returns evaluation state sized for e, with no rows yet.
func (e *Expr) newBlock() *block {
	return &block{vars: make([][]float64, len(e.vars)), argv: make([][]float64, e.args), args: make([]float64, e.args)}
}

// EvalRows evaluates the expression for each row of a column-oriented input:
// cols maps variable name → column slice. All referenced columns must be
// present and share a length. Rows where any referenced value is NaN produce
// NaN (null propagation). The columns are resolved to slots once, and the
// rows are evaluated blockRows at a time, each node of the tree one loop
// over the block.
func (e *Expr) EvalRows(cols map[string][]float64) ([]float64, error) {
	src := make([][]float64, len(e.vars))
	n := -1
	for s, name := range e.vars {
		col, ok := cols[name]
		if !ok {
			return nil, fmt.Errorf("expr: missing column %s for %s", quoteText(name), quoteText(e.src))
		}
		if n == -1 {
			n = len(col)
		} else if len(col) != n {
			return nil, fmt.Errorf("expr: column %s length %d != %d", quoteText(name), len(col), n)
		}
		src[s] = col
	}
	b := e.newBlock()
	if n == -1 {
		// Constant expression: caller decides broadcast length; return a
		// single value.
		b.n = 1
		return []float64{e.root.eval(b, 0)[0]}, nil
	}
	out := make([]float64, n)
	for lo := 0; lo < n; lo += blockRows {
		hi := min(lo+blockRows, n)
		b.n = hi - lo
		for s, col := range src {
			b.vars[s] = col[lo:hi]
		}
		dst := out[lo:hi]
		copy(dst, e.root.eval(b, 0))
		for _, col := range b.vars {
			for i, v := range col {
				if math.IsNaN(v) {
					dst[i] = math.NaN()
				}
			}
		}
	}
	return out, nil
}
