package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

var intRegAliases = map[string]uint8{
	"zero": 0, "rv": 1, "fp": 13, "lr": 14, "sp": 15,
}

func parseReg(tok string) (uint8, bool, bool) {
	if n, ok := intRegAliases[tok]; ok {
		return n, false, true
	}
	if len(tok) >= 2 && (tok[0] == 'r' || tok[0] == 'f') {
		n, err := strconv.Atoi(tok[1:])
		if err == nil && n >= 0 && n < 16 {
			return uint8(n), tok[0] == 'f', true
		}
	}
	return 0, false, false
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '.' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

// stripComment removes ';', '#' and '//' comments outside char literals.
func stripComment(s string) string {
	inChar := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inChar {
			if c == '\\' {
				i++
			} else if c == '\'' {
				inChar = false
			}
			continue
		}
		switch {
		case c == '\'':
			inChar = true
		case c == ';' || c == '#':
			return s[:i]
		case c == '/' && i+1 < len(s) && s[i+1] == '/':
			return s[:i]
		}
	}
	return s
}

func parseInt(tok string) (int64, error) {
	if len(tok) >= 3 && tok[0] == '\'' && tok[len(tok)-1] == '\'' {
		body := tok[1 : len(tok)-1]
		if len(body) == 2 && body[0] == '\\' {
			switch body[1] {
			case 'n':
				return '\n', nil
			case 't':
				return '\t', nil
			case '0':
				return 0, nil
			case '\\':
				return '\\', nil
			case '\'':
				return '\'', nil
			}
			return 0, fmt.Errorf("bad escape %q", body)
		}
		if len(body) == 1 {
			return int64(body[0]), nil
		}
		return 0, fmt.Errorf("bad char literal %q", tok)
	}
	return strconv.ParseInt(tok, 0, 64)
}

// parseOperand parses one comma-separated operand token. Literals keep
// their spelling as Text.
func parseOperand(tok string) (Operand, error) {
	tok = strings.TrimSpace(tok)
	if tok == "" {
		return Operand{}, fmt.Errorf("empty operand")
	}
	// Memory operand: off(reg) or (reg).
	if i := strings.IndexByte(tok, '('); i >= 0 && strings.HasSuffix(tok, ")") {
		base := strings.TrimSpace(tok[i+1 : len(tok)-1])
		reg, isF, ok := parseReg(base)
		if !ok || isF {
			return Operand{}, fmt.Errorf("bad base register %q", base)
		}
		offTok := strings.TrimSpace(tok[:i])
		var off int64
		if offTok != "" {
			var err error
			off, err = parseInt(offTok)
			if err != nil {
				return Operand{}, fmt.Errorf("bad memory offset %q", offTok)
			}
		}
		return Mem(off, reg), nil
	}
	if reg, isF, ok := parseReg(tok); ok {
		if isF {
			return FReg(reg), nil
		}
		return Reg(reg), nil
	}
	if isIdentStart(tok[0]) {
		// Symbol, optionally sym+n / sym-n.
		name := tok
		var off int64
		for i := 1; i < len(tok); i++ {
			if tok[i] == '+' || tok[i] == '-' {
				name = tok[:i]
				v, err := parseInt(tok[i+1:])
				if err != nil {
					return Operand{}, fmt.Errorf("bad symbol addend in %q", tok)
				}
				if tok[i] == '-' {
					v = -v
				}
				off = v
				break
			}
			if !isIdentChar(tok[i]) {
				return Operand{}, fmt.Errorf("bad operand %q", tok)
			}
		}
		return Operand{Kind: OpSym, Text: name, Num: off}, nil
	}
	if n, err := parseInt(tok); err == nil {
		return Operand{Kind: OpInt, Num: n, Text: tok}, nil
	}
	if f, err := strconv.ParseFloat(tok, 64); err == nil {
		return Operand{Kind: OpFloat, Num: int64(math.Float64bits(f)), Text: tok}, nil
	}
	return Operand{}, fmt.Errorf("bad operand %q", tok)
}

// splitOperands splits on commas that are outside char literals.
func splitOperands(s string) []string {
	var parts []string
	depth := 0
	start := 0
	inChar := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inChar {
			if c == '\\' {
				i++
			} else if c == '\'' {
				inChar = false
			}
			continue
		}
		switch c {
		case '\'':
			inChar = true
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, s[start:])
	return parts
}

// Parse splits assembly source into statements; blank and comment-only
// lines yield none.
func Parse(src string) ([]Stmt, error) {
	var out []Stmt
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(stripComment(raw))
		n := lineNo + 1
		if line == "" {
			continue
		}
		s := Stmt{Line: n}
		// Label?
		if i := strings.IndexByte(line, ':'); i >= 0 {
			lab := strings.TrimSpace(line[:i])
			if lab != "" && isIdentStart(lab[0]) && strings.IndexFunc(lab, func(r rune) bool {
				return !isIdentChar(byte(r))
			}) < 0 {
				s.Label = lab
				line = strings.TrimSpace(line[i+1:])
			}
		}
		if line == "" {
			out = append(out, s)
			continue
		}
		// Directive or mnemonic.
		fields := strings.SplitN(line, " ", 2)
		head := strings.TrimSpace(fields[0])
		rest := ""
		if len(fields) == 2 {
			rest = strings.TrimSpace(fields[1])
		}
		if strings.HasPrefix(head, ".") {
			s.Dir = head[1:]
		} else {
			s.Op = strings.ToLower(head)
		}
		if rest != "" {
			toks := splitOperands(rest)
			if len(toks) > len(s.Arg) {
				s.List = make([]Operand, len(toks))
			}
			args := s.Arg[:]
			if s.List != nil {
				args = s.List
			}
			for i, tok := range toks {
				op, err := parseOperand(tok)
				if err != nil {
					return nil, errf(n, "%v", err)
				}
				args[i] = op
			}
			if s.List == nil {
				s.NArg = uint8(len(toks))
			}
		}
		out = append(out, s)
	}
	return out, nil
}
