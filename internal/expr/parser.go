package expr

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Node is an expression AST node.
type Node interface {
	// eval computes the node's value given variable bindings. NaN propagates.
	eval(vars map[string]float64) float64
	// collectVars records every referenced variable name.
	collectVars(set map[string]struct{})
	// String renders the node back to parseable source.
	String() string
}

type numberNode struct{ v float64 }

func (n numberNode) eval(map[string]float64) float64 { return n.v }
func (n numberNode) collectVars(map[string]struct{}) {}
func (n numberNode) String() string                  { return trimFloat(n.v) }

type varNode struct{ name string }

func (n varNode) eval(vars map[string]float64) float64 {
	if v, ok := vars[n.name]; ok {
		return v
	}
	return math.NaN()
}
func (n varNode) collectVars(set map[string]struct{}) { set[n.name] = struct{}{} }
func (n varNode) String() string {
	if isBareIdent(n.name) {
		return n.name
	}
	return "`" + n.name + "`"
}

type binaryNode struct {
	op          byte // '+', '-', '*', '/', '^'
	left, right Node
}

func (n binaryNode) eval(vars map[string]float64) float64 {
	l, r := n.left.eval(vars), n.right.eval(vars)
	switch n.op {
	case '+':
		return l + r
	case '-':
		return l - r
	case '*':
		return l * r
	case '/':
		if r == 0 {
			// Safe division: SMARTFEAT's function generator guards ÷0 by
			// producing a null rather than ±Inf (CAAFE's reimplementation
			// deliberately omits this guard; see baselines/caafe).
			return math.NaN()
		}
		return l / r
	case '^':
		return math.Pow(l, r)
	default:
		return math.NaN()
	}
}
func (n binaryNode) collectVars(set map[string]struct{}) {
	n.left.collectVars(set)
	n.right.collectVars(set)
}
func (n binaryNode) String() string {
	return fmt.Sprintf("(%s %c %s)", n.left, n.op, n.right)
}

type negNode struct{ inner Node }

func (n negNode) eval(vars map[string]float64) float64 { return -n.inner.eval(vars) }
func (n negNode) collectVars(set map[string]struct{})  { n.inner.collectVars(set) }
func (n negNode) String() string                       { return "(-" + n.inner.String() + ")" }

type callNode struct {
	name string
	args []Node
}

func (n callNode) eval(vars map[string]float64) float64 {
	f := builtins[n.name]
	args := make([]float64, len(n.args))
	for i, a := range n.args {
		args[i] = a.eval(vars)
	}
	return f.apply(args)
}
func (n callNode) collectVars(set map[string]struct{}) {
	for _, a := range n.args {
		a.collectVars(set)
	}
}
func (n callNode) String() string {
	parts := make([]string, len(n.args))
	for i, a := range n.args {
		parts[i] = a.String()
	}
	return n.name + "(" + strings.Join(parts, ", ") + ")"
}

// builtin describes an intrinsic function available in expressions.
type builtin struct {
	minArgs, maxArgs int
	apply            func(args []float64) float64
}

var builtins = map[string]builtin{
	"log": {1, 1, func(a []float64) float64 {
		if a[0] <= 0 {
			return math.NaN()
		}
		return math.Log(a[0])
	}},
	"log1p": {1, 1, func(a []float64) float64 {
		if a[0] <= -1 {
			return math.NaN()
		}
		return math.Log1p(a[0])
	}},
	"sqrt": {1, 1, func(a []float64) float64 {
		if a[0] < 0 {
			return math.NaN()
		}
		return math.Sqrt(a[0])
	}},
	"abs": {1, 1, func(a []float64) float64 { return math.Abs(a[0]) }},
	"exp": {1, 1, func(a []float64) float64 { return math.Exp(a[0]) }},
	"min": {2, 16, func(a []float64) float64 {
		m := a[0]
		for _, v := range a[1:] {
			if v < m {
				m = v
			}
		}
		return m
	}},
	"max": {2, 16, func(a []float64) float64 {
		m := a[0]
		for _, v := range a[1:] {
			if v > m {
				m = v
			}
		}
		return m
	}},
	"pow": {2, 2, func(a []float64) float64 { return math.Pow(a[0], a[1]) }},
	"clip": {3, 3, func(a []float64) float64 {
		if a[0] < a[1] {
			return a[1]
		}
		if a[0] > a[2] {
			return a[2]
		}
		return a[0]
	}},
	"round": {1, 1, func(a []float64) float64 { return math.Round(a[0]) }},
	"floor": {1, 1, func(a []float64) float64 { return math.Floor(a[0]) }},
	"ceil":  {1, 1, func(a []float64) float64 { return math.Ceil(a[0]) }},
}

// Builtins returns the sorted names of all intrinsic functions.
func Builtins() []string {
	out := make([]string, 0, len(builtins))
	for n := range builtins {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
	src  string
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errorf(t token, format string, args ...any) error {
	return fmt.Errorf("expr: %s at position %d in %q", fmt.Sprintf(format, args...), t.pos, p.src)
}

// parseExpr := term (('+'|'-') term)*
func (p *parser) parseExpr() (Node, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek().kind {
		case tokPlus:
			p.next()
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = binaryNode{'+', left, right}
		case tokMinus:
			p.next()
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = binaryNode{'-', left, right}
		default:
			return left, nil
		}
	}
}

// parseTerm := unary (('*'|'/') unary)*
func (p *parser) parseTerm() (Node, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek().kind {
		case tokStar:
			p.next()
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = binaryNode{'*', left, right}
		case tokSlash:
			p.next()
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = binaryNode{'/', left, right}
		default:
			return left, nil
		}
	}
}

// parseUnary := '-' unary | power
func (p *parser) parseUnary() (Node, error) {
	if p.peek().kind == tokMinus {
		p.next()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return negNode{inner}, nil
	}
	return p.parsePower()
}

// parsePower := primary ('^' unary)?   (right associative)
func (p *parser) parsePower() (Node, error) {
	base, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokCaret {
		p.next()
		exp, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return binaryNode{'^', base, exp}, nil
	}
	return base, nil
}

// parsePrimary := NUMBER | IDENT | IDENT '(' args ')' | '(' expr ')'
func (p *parser) parsePrimary() (Node, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		return numberNode{t.num}, nil
	case tokIdent:
		if p.peek().kind == tokLParen {
			return p.parseCall(t)
		}
		return varNode{t.text}, nil
	case tokLParen:
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if closing := p.next(); closing.kind != tokRParen {
			return nil, p.errorf(closing, "expected ')' but found %s", closing.kind)
		}
		return inner, nil
	default:
		return nil, p.errorf(t, "unexpected %s", t.kind)
	}
}

func (p *parser) parseCall(name token) (Node, error) {
	fn, ok := builtins[name.text]
	if !ok {
		return nil, p.errorf(name, "unknown function %q (available: %s)", name.text, strings.Join(Builtins(), ", "))
	}
	p.next() // consume '('
	var args []Node
	if p.peek().kind != tokRParen {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.peek().kind == tokComma {
				p.next()
				continue
			}
			break
		}
	}
	if closing := p.next(); closing.kind != tokRParen {
		return nil, p.errorf(closing, "expected ')' to close %s(...)", name.text)
	}
	if len(args) < fn.minArgs || len(args) > fn.maxArgs {
		return nil, p.errorf(name, "%s expects %d..%d arguments, got %d", name.text, fn.minArgs, fn.maxArgs, len(args))
	}
	return callNode{name.text, args}, nil
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
