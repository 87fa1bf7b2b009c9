package cc

import (
	"strconv"
	"strings"
)

// lexer turns MC source into tokens.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peekByteAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peekByteAt(1) == '/':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.peekByteAt(1) == '*':
			line, col := l.line, l.col
			l.advance()
			l.advance()
			for {
				if l.pos >= len(l.src) {
					return errAt(line, col, "unterminated block comment")
				}
				if l.peekByte() == '*' && l.peekByteAt(1) == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isLetter(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }

// multi-byte punctuation, longest first.
var puncts = []string{
	"<<=", ">>=",
	"==", "!=", "<=", ">=", "&&", "||", "++", "--",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
	"+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~", "?", ":",
	"(", ")", "{", "}", "[", "]", ",", ";",
}

// next scans the next token.
func (l *lexer) next() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	line, col := l.line, l.col
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: line, col: col}, nil
	}
	c := l.peekByte()

	switch {
	case isLetter(c):
		start := l.pos
		for l.pos < len(l.src) && (isLetter(l.peekByte()) || isDigit(l.peekByte())) {
			l.advance()
		}
		text := l.src[start:l.pos]
		kind := tokIdent
		if keywords[text] {
			kind = tokKeyword
		}
		return token{kind: kind, text: text, line: line, col: col}, nil

	case isDigit(c) || (c == '.' && isDigit(l.peekByteAt(1))):
		start := l.pos
		isFloat := false
		if c == '0' && (l.peekByteAt(1) == 'x' || l.peekByteAt(1) == 'X') {
			l.advance()
			l.advance()
			for l.pos < len(l.src) && isHexDigit(l.peekByte()) {
				l.advance()
			}
			v, err := strconv.ParseUint(l.src[start+2:l.pos], 16, 32)
			if err != nil {
				return token{}, errAt(line, col, "bad hex literal %q", l.src[start:l.pos])
			}
			return token{kind: tokIntLit, ival: int64(int32(uint32(v))), text: l.src[start:l.pos], line: line, col: col}, nil
		}
		for l.pos < len(l.src) && isDigit(l.peekByte()) {
			l.advance()
		}
		if l.peekByte() == '.' {
			isFloat = true
			l.advance()
			for l.pos < len(l.src) && isDigit(l.peekByte()) {
				l.advance()
			}
		}
		if l.peekByte() == 'e' || l.peekByte() == 'E' {
			isFloat = true
			l.advance()
			if l.peekByte() == '+' || l.peekByte() == '-' {
				l.advance()
			}
			for l.pos < len(l.src) && isDigit(l.peekByte()) {
				l.advance()
			}
		}
		text := l.src[start:l.pos]
		if isFloat {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return token{}, errAt(line, col, "bad float literal %q", text)
			}
			return token{kind: tokFloatLit, fval: f, text: text, line: line, col: col}, nil
		}
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil || v > 1<<31 {
			return token{}, errAt(line, col, "integer literal %q out of range", text)
		}
		return token{kind: tokIntLit, ival: v, text: text, line: line, col: col}, nil

	case c == '\'':
		l.advance()
		if l.pos >= len(l.src) {
			return token{}, errAt(line, col, "unterminated char literal")
		}
		var v int64
		ch := l.advance()
		if ch == '\\' {
			if l.pos >= len(l.src) {
				return token{}, errAt(line, col, "unterminated char literal")
			}
			esc := l.advance()
			switch esc {
			case 'n':
				v = '\n'
			case 't':
				v = '\t'
			case '0':
				v = 0
			case '\\':
				v = '\\'
			case '\'':
				v = '\''
			default:
				return token{}, errAt(line, col, "unknown escape '\\%c'", esc)
			}
		} else {
			v = int64(ch)
		}
		if l.peekByte() != '\'' {
			return token{}, errAt(line, col, "unterminated char literal")
		}
		l.advance()
		return token{kind: tokIntLit, ival: v, line: line, col: col}, nil
	}

	for _, p := range puncts {
		if strings.HasPrefix(l.src[l.pos:], p) {
			for range p {
				l.advance()
			}
			return token{kind: tokPunct, text: p, line: line, col: col}, nil
		}
	}
	return token{}, errAt(line, col, "unexpected character %q", string(c))
}

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// lexAll scans the whole source, appending its tokens to toks.
func lexAll(toks []token, src string) ([]token, error) {
	l := newLexer(src)
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}
