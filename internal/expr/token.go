// Package expr implements the condition and specification language used by
// StreamLoader's dataflow operations: Filter conditions, Virtual-property
// specifications, Join predicates, Trigger conditions, and Transform
// validation rules.
//
// The language is a small, typed expression language over one tuple (or, for
// join predicates, a pair of tuples addressed as left.field / right.field):
//
//	temperature > 25 && station != "kobe-3"
//	temperature + 0.33*humidity/100*6.105*exp(17.27*temperature/(237.7+temperature)) - 4
//	contains(lower(text), "rain") || retweets >= 10
//	distance_m(_lat, _lon, 34.6937, 135.5023) < 5000
//
// Besides schema fields, the STT metadata of the tuple is addressable via
// the reserved identifiers _time, _lat, _lon, _theme, _source and _seq.
//
// Compile checks an expression against its Env, then turns the tree into
// closures with fields resolved to schema slots (a tuple of another schema
// is read by name): evaluating walks no tree and allocates nothing. A
// Compiled is immutable and safe for concurrent use.
//
// A missing sensor reading is null, and null propagates:
//
//	-x, x + y, x - y, x * y, x / y, x % y   null
//	x < y, x <= y, x > y, x >= y            false
//	x == y, x != y                          null equals null only
//	!x, x && y, x || y, if(x, a, b)         null is false
//	coalesce(a, b, ...)                     the first non-null argument
//	min(a, b, ...), max(a, b, ...)          nulls skipped; null if all are
//	every other builtin                     null
package expr

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind enumerates lexical token classes.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokInt
	tokFloat
	tokString
	tokIdent
	tokLParen
	tokRParen
	tokComma
	tokDot
	tokOp // one of the operator spellings below
)

// token is one lexical token with its source position (byte offset).
type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// SyntaxError reports a lexical or grammatical error with its position.
type SyntaxError struct {
	Pos  int
	Msg  string
	Expr string
}

// Error renders the message with a caret-friendly position.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("expr: %s at offset %d in %q", e.Msg, e.Pos, e.Expr)
}

type lexer struct {
	src    string
	pos    int
	tokens []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		l.tokens = append(l.tokens, tok)
		if tok.kind == tokEOF {
			return l.tokens, nil
		}
	}
}

func (l *lexer) errorf(pos int, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...), Expr: l.src}
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		r, w := utf8.DecodeRuneInString(l.src[l.pos:])
		if !unicode.IsSpace(r) {
			break
		}
		l.pos += w
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c >= '0' && c <= '9':
		return l.lexNumber()
	case c == '"' || c == '\'':
		return l.lexString(c)
	case isIdentStart(rune(c)):
		for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}, nil
	case c == '(':
		l.pos++
		return token{kind: tokLParen, text: "(", pos: start}, nil
	case c == ')':
		l.pos++
		return token{kind: tokRParen, text: ")", pos: start}, nil
	case c == ',':
		l.pos++
		return token{kind: tokComma, text: ",", pos: start}, nil
	case c == '.':
		// Distinguish member access from a leading-dot float like ".5".
		if l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
			return l.lexNumber()
		}
		l.pos++
		return token{kind: tokDot, text: ".", pos: start}, nil
	}
	// Multi-character operators first.
	for _, op := range []string{"<=", ">=", "!=", "==", "&&", "||"} {
		if strings.HasPrefix(l.src[l.pos:], op) {
			l.pos += len(op)
			return token{kind: tokOp, text: op, pos: start}, nil
		}
	}
	switch c {
	case '+', '-', '*', '/', '%', '<', '>', '=', '!':
		l.pos++
		return token{kind: tokOp, text: string(c), pos: start}, nil
	}
	return token{}, l.errorf(start, "unexpected character %q", rune(c))
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c >= '0' && c <= '9':
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
			seenExp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		default:
			goto done
		}
	}
done:
	text := l.src[start:l.pos]
	kind := tokInt
	if seenDot || seenExp {
		kind = tokFloat
	}
	return token{kind: kind, text: text, pos: start}, nil
}

func (l *lexer) lexString(quote byte) (token, error) {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case quote:
			l.pos++
			return token{kind: tokString, text: b.String(), pos: start}, nil
		case '\\':
			l.pos++
			if l.pos >= len(l.src) {
				return token{}, l.errorf(start, "unterminated string")
			}
			esc := l.src[l.pos]
			switch esc {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '\\', '"', '\'':
				b.WriteByte(esc)
			default:
				return token{}, l.errorf(l.pos, "unknown escape \\%c", esc)
			}
			l.pos++
		default:
			b.WriteByte(c)
			l.pos++
		}
	}
	return token{}, l.errorf(start, "unterminated string")
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
