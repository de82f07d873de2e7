// Package expr implements a small arithmetic expression compiler used by the
// function generator: the simulated foundation model emits transformation
// formulas as text (e.g. "(ACES.1 + DBF.1) / (UFE.1 + 1)"), and this package
// lexes, parses and evaluates them against dataframe columns with
// null-propagating semantics. It is the Go analogue of the Python lambda
// functions SMARTFEAT's function generator produces.
package expr

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokNumber
	tokIdent
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokCaret
	tokLParen
	tokRParen
	tokComma
)

type token struct {
	kind tokenKind
	text string
	num  float64
	pos  int
}

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of expression"
	case tokNumber:
		return "number"
	case tokIdent:
		return "identifier"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokStar:
		return "'*'"
	case tokSlash:
		return "'/'"
	case tokCaret:
		return "'^'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	default:
		return "unknown token"
	}
}

// isIdentStart reports whether r can begin a bare identifier.
func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

// isIdentPart reports whether r can continue a bare identifier. Dots, digits
// and '=' are allowed so that generated feature names such as "FSW.1" and
// dummy columns such as "city=SF" can be referenced directly.
func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '.' || r == '='
}

// isBareIdent reports whether name lexes back as exactly one bare
// identifier; any other name must be written in backticks.
func isBareIdent(name string) bool {
	for i, r := range name {
		if i == 0 && !isIdentStart(r) || !isIdentPart(r) {
			return false
		}
	}
	return name != ""
}

// lexer reads source text one token at a time, as the parser asks for
// them, so a parse that stops early, at an error or a bound, lexes no
// further. Identifiers may also be written in backticks (`Age of car`) to
// include spaces or operator characters.
type lexer struct {
	runes []rune
	i     int
}

// next returns the next token: tokEOF at the end of the source.
func (l *lexer) next() (token, error) {
	runes := l.runes
	for l.i < len(runes) && unicode.IsSpace(runes[l.i]) {
		l.i++
	}
	i := l.i
	if i == len(runes) {
		return token{kind: tokEOF, pos: i}, nil
	}
	t, end := token{pos: i}, i+1
	switch r := runes[i]; {
	case r == '+':
		t.kind = tokPlus
	case r == '-':
		t.kind = tokMinus
	case r == '*':
		t.kind = tokStar
		// Accept Python-style ** as exponentiation.
		if end < len(runes) && runes[end] == '*' {
			t.kind, end = tokCaret, end+1
		}
	case r == '/':
		t.kind = tokSlash
	case r == '^':
		t.kind = tokCaret
	case r == '(':
		t.kind = tokLParen
	case r == ')':
		t.kind = tokRParen
	case r == ',':
		t.kind = tokComma
	case r == '`':
		j := i + 1
		for j < len(runes) && runes[j] != '`' {
			j++
		}
		if j >= len(runes) {
			return token{}, fmt.Errorf("expr: unterminated backtick identifier at %d", i)
		}
		name := string(runes[i+1 : j])
		if strings.TrimSpace(name) == "" {
			return token{}, fmt.Errorf("expr: empty backtick identifier at %d", i)
		}
		t.kind, t.text, end = tokIdent, name, j+1
	case unicode.IsDigit(r) || r == '.':
		j := i
		sawDigit := false
		for j < len(runes) && (unicode.IsDigit(runes[j]) || runes[j] == '.') {
			if unicode.IsDigit(runes[j]) {
				sawDigit = true
			}
			j++
		}
		// Scientific notation: 1e-3, 2.5E+7.
		if j < len(runes) && (runes[j] == 'e' || runes[j] == 'E') && sawDigit {
			k := j + 1
			if k < len(runes) && (runes[k] == '+' || runes[k] == '-') {
				k++
			}
			if k < len(runes) && unicode.IsDigit(runes[k]) {
				for k < len(runes) && unicode.IsDigit(runes[k]) {
					k++
				}
				j = k
			}
		}
		text := string(runes[i:j])
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return token{}, fmt.Errorf("expr: bad number %s at %d", quoteText(text), i)
		}
		t.kind, t.text, t.num, end = tokNumber, text, v, j
	case isIdentStart(r):
		j := i
		for j < len(runes) && isIdentPart(runes[j]) {
			j++
		}
		t.kind, t.text, end = tokIdent, string(runes[i:j]), j
	default:
		return token{}, fmt.Errorf("expr: unexpected character %q at %d", string(r), i)
	}
	l.i = end
	return t, nil
}
