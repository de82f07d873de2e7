package expr

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Node is an expression AST node.
type Node interface {
	// eval computes the node's value for every row of block b. It returns
	// register r, written in full, or a variable's rows, which no node
	// writes. It writes no register below r, so a parent keeps an earlier
	// operand in one while the next is computed above it. NaN propagates.
	eval(b *block, r int) []float64
	// String renders the node back to parseable source.
	String() string
}

// blockRows is how many rows a block holds: enough that each node's loop
// runs long, few enough that a tree's registers stay in cache.
const blockRows = 256

// block is the evaluation state for a run of rows: vars holds each
// variable's rows at its slot, regs the registers nodes write, and argv and
// args every call node's evaluated arguments and one row of them, each at
// its own offset, so evaluating a block neither looks a name up nor, once
// its registers exist, allocates.
type block struct {
	n    int
	vars [][]float64
	regs [][]float64
	argv [][]float64
	args []float64
}

// reg returns register r, cut to the block's rows, making it on first use.
func (b *block) reg(r int) []float64 {
	for len(b.regs) <= r {
		b.regs = append(b.regs, make([]float64, blockRows))
	}
	return b.regs[r][:b.n]
}

type numberNode struct{ v float64 }

func (n *numberNode) eval(b *block, r int) []float64 {
	dst := b.reg(r)
	for i := range dst {
		dst[i] = n.v
	}
	return dst
}
func (n *numberNode) String() string { return trimFloat(n.v) }

// varNode reads its variable's slot. The parser sets slot once the whole
// expression is read: it is the name's index in the sorted Vars.
type varNode struct {
	name string
	slot int
}

func (n *varNode) eval(b *block, _ int) []float64 { return b.vars[n.slot] }
func (n *varNode) String() string {
	if isBareIdent(n.name) {
		return n.name
	}
	return "`" + n.name + "`"
}

type binaryNode struct {
	op          byte // '+', '-', '*', '/', '^'
	left, right Node
}

func (n *binaryNode) eval(b *block, r int) []float64 {
	l := n.left.eval(b, r)
	rt := n.right.eval(b, r+1)
	dst := b.reg(r)
	l, rt = l[:len(dst)], rt[:len(dst)]
	switch n.op {
	case '+':
		for i := range dst {
			dst[i] = l[i] + rt[i]
		}
	case '-':
		for i := range dst {
			dst[i] = l[i] - rt[i]
		}
	case '*':
		for i := range dst {
			dst[i] = l[i] * rt[i]
		}
	case '/':
		for i := range dst {
			if rt[i] == 0 {
				// Safe division: SMARTFEAT's function generator guards ÷0
				// by producing a null rather than ±Inf (CAAFE's
				// reimplementation deliberately omits this guard; see
				// baselines/caafe).
				dst[i] = math.NaN()
			} else {
				dst[i] = l[i] / rt[i]
			}
		}
	case '^':
		for i := range dst {
			dst[i] = math.Pow(l[i], rt[i])
		}
	default:
		for i := range dst {
			dst[i] = math.NaN()
		}
	}
	return dst
}
func (n *binaryNode) String() string {
	return fmt.Sprintf("(%s %c %s)", n.left, n.op, n.right)
}

type negNode struct{ inner Node }

func (n *negNode) eval(b *block, r int) []float64 {
	x := n.inner.eval(b, r)
	dst := b.reg(r)
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = -x[i]
	}
	return dst
}
func (n *negNode) String() string { return "(-" + n.inner.String() + ")" }

// callNode evaluates argument k into register r+k, keeps the results in
// b.argv[off:off+len(args)] and applies its function row by row from
// b.args[off:off+len(args)], regions no other call node uses, so nested
// calls do not overwrite each other's arguments.
type callNode struct {
	name  string
	apply func(args []float64) float64
	args  []Node
	off   int
}

func (n *callNode) eval(b *block, r int) []float64 {
	argv := b.argv[n.off : n.off+len(n.args)]
	for k, a := range n.args {
		argv[k] = a.eval(b, r+k)
	}
	dst := b.reg(r)
	args := b.args[n.off : n.off+len(n.args)]
	for i := range dst {
		for k, v := range argv {
			args[k] = v[i]
		}
		dst[i] = n.apply(args)
	}
	return dst
}
func (n *callNode) String() string {
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

// Compile's bounds. FM text reaches the parser unchecked, and the parser,
// String and evaluation all recurse, so a hostile expression could
// otherwise exhaust the goroutine stack, which is fatal, not a panic. The
// formulas the simulated FM and CAAFE write on the quick grid print at
// most 4 levels deep and have at most 15 nodes.
const (
	// maxDepth bounds how deeply an expression nests: parenthesized
	// groups, calls, unary minuses and exponents. It holds for the source
	// and for the printed form String gives, so whatever compiles prints
	// as source that compiles again.
	maxDepth = 64
	// maxNodes bounds the tree's nodes (its numbers, variables, calls and
	// operators), and with them the work of evaluating each row.
	maxNodes = 1024
)

// The errors Compile returns, wrapped, at its bounds.
var (
	ErrTooDeep  = errors.New("expr: expression nests too deeply")
	ErrTooLarge = errors.New("expr: expression has too many nodes")
)

// parser is a recursive-descent parser over the lexer's tokens, with one
// token of lookahead.
type parser struct {
	lex    lexer
	tok    token      // the lookahead
	lexErr error      // why the token stream ended early, if it did
	vars   []*varNode // every variable reference, for slot assignment
	args   int        // call arguments so far: the next call's offset in a block's args
	depth  int        // nesting levels entered and not yet left
	nodes  int        // number, identifier and operator tokens read so far
}

func newParser(src string) *parser {
	p := &parser{lex: lexer{runes: []rune(src)}}
	p.advance()
	return p
}

// advance lexes the next lookahead. A lexing error ends the stream there:
// the parser sees the end of the expression, and Compile reports the
// error.
func (p *parser) advance() {
	var err error
	if p.tok, err = p.lex.next(); err != nil {
		p.lexErr = err
		p.tok = token{kind: tokEOF, pos: p.lex.i}
	}
}

func (p *parser) peek() token { return p.tok }

// next consumes one token. Each number, identifier and operator token
// becomes exactly one node of the tree (a leaf, a call, a negation or a
// binary operation), so counting them here counts the tree's nodes;
// parsePrimary holds the count to maxNodes.
func (p *parser) next() token {
	t := p.tok
	switch t.kind {
	case tokEOF:
		return t
	case tokLParen, tokRParen, tokComma:
	default:
		p.nodes++
	}
	p.advance()
	return t
}

// descend enters one nesting level at t, refusing to pass maxDepth; the
// caller leaves it with p.depth-- once the nested part is parsed.
func (p *parser) descend(t token) error {
	if p.depth++; p.depth > maxDepth {
		return fmt.Errorf("%w: more than %d levels at position %d", ErrTooDeep, maxDepth, t.pos)
	}
	return nil
}

func (p *parser) errorf(t token, format string, args ...any) error {
	return fmt.Errorf("expr: %s at position %d in %s", fmt.Sprintf(format, args...), t.pos, excerpt(p.lex.runes, t.pos))
}

// Formulas arrive as FM output of any length, so an error quotes a bounded
// stretch of them: a source up to wholeQuote runes whole, a longer one as a
// window of quoteWindow runes around the error's position.
const (
	wholeQuote  = 128
	quoteWindow = 48
)

// excerpt quotes src, or its window around pos with "…" where it is cut.
func excerpt(src []rune, pos int) string {
	if len(src) <= wholeQuote {
		return strconv.Quote(string(src))
	}
	lo := min(max(pos-quoteWindow/2, 0), len(src)-quoteWindow)
	hi := lo + quoteWindow
	q := strconv.Quote(string(src[lo:hi]))
	if lo > 0 {
		q = "…" + q
	}
	if hi < len(src) {
		q += "…"
	}
	return q
}

// quoteText quotes a name or token text from the source, keeping its first
// quoteWindow runes when it is longer than wholeQuote.
func quoteText(s string) string {
	if len(s) <= wholeQuote {
		return strconv.Quote(s)
	}
	return excerpt([]rune(s), 0)
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
			left = &binaryNode{'+', left, right}
		case tokMinus:
			p.next()
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = &binaryNode{'-', left, right}
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
			left = &binaryNode{'*', left, right}
		case tokSlash:
			p.next()
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &binaryNode{'/', left, right}
		default:
			return left, nil
		}
	}
}

// parseUnary := '-' unary | power
func (p *parser) parseUnary() (Node, error) {
	if p.peek().kind == tokMinus {
		if err := p.descend(p.next()); err != nil {
			return nil, err
		}
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		p.depth--
		return &negNode{inner}, nil
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
		if err := p.descend(p.next()); err != nil {
			return nil, err
		}
		exp, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		p.depth--
		return &binaryNode{'^', base, exp}, nil
	}
	return base, nil
}

// parsePrimary := NUMBER | IDENT | IDENT '(' args ')' | '(' expr ')'
func (p *parser) parsePrimary() (Node, error) {
	t := p.next()
	if p.nodes > maxNodes {
		return nil, fmt.Errorf("%w: more than %d at position %d", ErrTooLarge, maxNodes, t.pos)
	}
	switch t.kind {
	case tokNumber:
		return &numberNode{t.num}, nil
	case tokIdent:
		if p.peek().kind == tokLParen {
			return p.parseCall(t)
		}
		v := &varNode{name: t.text}
		p.vars = append(p.vars, v)
		return v, nil
	case tokLParen:
		if err := p.descend(t); err != nil {
			return nil, err
		}
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if closing := p.next(); closing.kind != tokRParen {
			return nil, p.errorf(closing, "expected ')' but found %s", closing.kind)
		}
		p.depth--
		return inner, nil
	default:
		return nil, p.errorf(t, "unexpected %s", t.kind)
	}
}

func (p *parser) parseCall(name token) (Node, error) {
	fn, ok := builtins[name.text]
	if !ok {
		return nil, p.errorf(name, "unknown function %s (available: %s)", quoteText(name.text), strings.Join(Builtins(), ", "))
	}
	// Consume the '(' and enter the arguments' level.
	if err := p.descend(p.next()); err != nil {
		return nil, err
	}
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
	p.depth--
	if len(args) < fn.minArgs || len(args) > fn.maxArgs {
		return nil, p.errorf(name, "%s expects %d..%d arguments, got %d", name.text, fn.minArgs, fn.maxArgs, len(args))
	}
	call := &callNode{name: name.text, apply: fn.apply, args: args, off: p.args}
	p.args += len(args)
	return call, nil
}

// printedDepth returns how deeply n's printed form nests, as the parser
// counts it: each binary operation prints inside parentheses, a negation
// as "(-x)", and an exponent is one level below its base.
func printedDepth(n Node) int {
	switch n := n.(type) {
	case *binaryNode:
		l, r := printedDepth(n.left), printedDepth(n.right)
		if n.op == '^' {
			r++
		}
		return 1 + max(l, r)
	case *negNode:
		return 2 + printedDepth(n.inner)
	case *callNode:
		d := 0
		for _, a := range n.args {
			d = max(d, printedDepth(a))
		}
		return 1 + d
	}
	return 0
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
