package expr

import (
	"fmt"
	"strconv"

	"streamloader/internal/stt"
)

// Parse compiles source text into an expression tree. It performs no type
// checking; call Check (or Compile, which does both) before evaluating.
func Parse(src string) (Node, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	n, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf(p.peek().pos, "unexpected %s after expression", p.peek())
	}
	return n, nil
}

type parser struct {
	src  string
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) advance() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) errorf(pos int, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...), Expr: p.src}
}

// parseBinary implements precedence climbing from minPrec upward.
func (p *parser) parseBinary(minPrec int) (Node, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp {
			return left, nil
		}
		op := normalizeOp(t.text)
		prec := binaryPrec(op)
		if prec == 0 || prec < minPrec {
			return left, nil
		}
		p.advance()
		right, err := p.parseBinary(prec + 1) // left-associative
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
}

// normalizeOp maps the SQL-flavoured "=" spelling onto "==" so conditions can
// be written either way, as in the paper's examples.
func normalizeOp(op string) string {
	if op == "=" {
		return "=="
	}
	return op
}

func (p *parser) parseUnary() (Node, error) {
	t := p.peek()
	if t.kind == tokOp && (t.text == "!" || t.text == "-") {
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negated numeric literals so "-5" prints back as "-5".
		if t.text == "-" {
			if lit, ok := x.(*Lit); ok && lit.Value.Kind().Numeric() {
				neg, err := lit.Value.Neg()
				if err == nil {
					return &Lit{Value: neg}, nil
				}
			}
		}
		return &Unary{Op: t.text, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Node, error) {
	t := p.advance()
	switch t.kind {
	case tokInt:
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf(t.pos, "bad integer %q: %v", t.text, err)
		}
		return &Lit{Value: stt.Int(v)}, nil
	case tokFloat:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errorf(t.pos, "bad number %q: %v", t.text, err)
		}
		return &Lit{Value: stt.Float(v)}, nil
	case tokString:
		return &Lit{Value: stt.String(t.text)}, nil
	case tokLParen:
		n, err := p.parseBinary(1)
		if err != nil {
			return nil, err
		}
		if tt := p.advance(); tt.kind != tokRParen {
			return nil, p.errorf(tt.pos, "expected ')', found %s", tt)
		}
		return n, nil
	case tokIdent:
		switch t.text {
		case "true":
			return &Lit{Value: stt.Bool(true)}, nil
		case "false":
			return &Lit{Value: stt.Bool(false)}, nil
		case "null":
			return &Lit{Value: stt.Null()}, nil
		}
		// Function call?
		if p.peek().kind == tokLParen {
			return p.parseCall(t)
		}
		// Qualified identifier (left.x / right.x)?
		if p.peek().kind == tokDot {
			p.advance()
			name := p.advance()
			if name.kind != tokIdent {
				return nil, p.errorf(name.pos, "expected field name after %q.", t.text)
			}
			return &Ident{Qualifier: t.text, Name: name.text}, nil
		}
		return &Ident{Name: t.text}, nil
	case tokEOF:
		return nil, p.errorf(t.pos, "unexpected end of expression")
	default:
		return nil, p.errorf(t.pos, "unexpected %s", t)
	}
}

func (p *parser) parseCall(name token) (Node, error) {
	p.advance() // consume '('
	var args []Node
	if p.peek().kind == tokRParen {
		p.advance()
		return &Call{Func: name.text, Args: args}, nil
	}
	for {
		a, err := p.parseBinary(1)
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		t := p.advance()
		switch t.kind {
		case tokComma:
			continue
		case tokRParen:
			return &Call{Func: name.text, Args: args}, nil
		default:
			return nil, p.errorf(t.pos, "expected ',' or ')' in call to %s, found %s", name.text, t)
		}
	}
}
