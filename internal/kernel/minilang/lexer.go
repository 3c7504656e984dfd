// Package minilang implements the small scripting language executed by
// the simulated Jupyter kernel. It stands in for a Python kernel: cell
// sources are minilang programs with file, network, process, and
// crypto primitives — enough expressive power for both science
// workloads and every attack payload in the taxonomy, while remaining
// fully sandboxed behind a Host interface.
//
// The language is line-oriented:
//
//	data = read_file("results/train.csv")
//	key = "beef"
//	for f in list_files("notebooks")
//	    write_file(f, encrypt(read_file(f), key))
//	end
//	if status == "ok"
//	    print("done", len(data))
//	end
//
// Values are strings, numbers, lists, and nil. Expressions support
// calls, + (concat/add), comparisons, and indexing.
//
// Programs run on a tree-walking interpreter (Interp, interp.go) over
// a runtime of values, builtins, operator semantics and limits
// (runtime.go). Limits bounds steps, stdout, string size and spin;
// FuzzInterp holds every input to them and to determinism.
package minilang

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind classifies lexer tokens.
type tokKind int

const (
	tokEOF tokKind = iota
	tokNewline
	tokIdent
	tokString
	tokNumber
	tokAssign // =
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokComma
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokPercent
	tokEq  // ==
	tokNeq // !=
	tokLt
	tokGt
	tokLe
	tokGe
	tokKwFor
	tokKwIn
	tokKwIf
	tokKwElse
	tokKwEnd
	tokKwWhile
	tokKwAnd
	tokKwOr
	tokKwNot
	tokKwBreak
)

// token is one lexical token with its source line for diagnostics.
type token struct {
	kind tokKind
	text string
	num  float64
	line int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokNewline:
		return "newline"
	case tokString:
		return fmt.Sprintf("string %q", t.text)
	case tokNumber:
		return fmt.Sprintf("number %s", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

var keywords = map[string]tokKind{
	"for": tokKwFor, "in": tokKwIn, "if": tokKwIf, "else": tokKwElse,
	"end": tokKwEnd, "while": tokKwWhile, "and": tokKwAnd, "or": tokKwOr,
	"not": tokKwNot, "break": tokKwBreak,
}

// SyntaxError reports a lexing or parsing failure with its line.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("minilang: line %d: %s", e.Line, e.Msg)
}

func lex(src string) ([]token, error) {
	var toks []token
	line := 1
	i := 0
	emit := func(k tokKind, text string) { toks = append(toks, token{kind: k, text: text, line: line}) }
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			emit(tokNewline, "\\n")
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == ';':
			emit(tokNewline, ";")
			i++
		case c == '"' || c == '\'':
			quote := c
			i++
			var sb strings.Builder
			closed := false
			for i < len(src) {
				if src[i] == '\\' && i+1 < len(src) {
					switch src[i+1] {
					case 'n':
						sb.WriteByte('\n')
					case 't':
						sb.WriteByte('\t')
					case '\\':
						sb.WriteByte('\\')
					case quote:
						sb.WriteByte(quote)
					default:
						sb.WriteByte(src[i+1])
					}
					i += 2
					continue
				}
				if src[i] == quote {
					closed = true
					i++
					break
				}
				if src[i] == '\n' {
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			if !closed {
				return nil, &SyntaxError{Line: line, Msg: "unterminated string"}
			}
			toks = append(toks, token{kind: tokString, text: sb.String(), line: line})
		case c >= '0' && c <= '9':
			start := i
			for i < len(src) && (src[i] >= '0' && src[i] <= '9' || src[i] == '.') {
				i++
			}
			text := src[start:i]
			var f float64
			if _, err := fmt.Sscanf(text, "%g", &f); err != nil {
				return nil, &SyntaxError{Line: line, Msg: "bad number " + text}
			}
			toks = append(toks, token{kind: tokNumber, text: text, num: f, line: line})
		case isIdentStart(rune(c)):
			start := i
			for i < len(src) && isIdentPart(rune(src[i])) {
				i++
			}
			word := src[start:i]
			if k, ok := keywords[word]; ok {
				emit(k, word)
			} else {
				emit(tokIdent, word)
			}
		default:
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch two {
			case "==":
				emit(tokEq, two)
				i += 2
				continue
			case "!=":
				emit(tokNeq, two)
				i += 2
				continue
			case "<=":
				emit(tokLe, two)
				i += 2
				continue
			case ">=":
				emit(tokGe, two)
				i += 2
				continue
			}
			switch c {
			case '=':
				emit(tokAssign, "=")
			case '(':
				emit(tokLParen, "(")
			case ')':
				emit(tokRParen, ")")
			case '[':
				emit(tokLBracket, "[")
			case ']':
				emit(tokRBracket, "]")
			case ',':
				emit(tokComma, ",")
			case '+':
				emit(tokPlus, "+")
			case '-':
				emit(tokMinus, "-")
			case '*':
				emit(tokStar, "*")
			case '/':
				emit(tokSlash, "/")
			case '%':
				emit(tokPercent, "%")
			case '<':
				emit(tokLt, "<")
			case '>':
				emit(tokGt, ">")
			default:
				return nil, &SyntaxError{Line: line, Msg: fmt.Sprintf("unexpected character %q", c)}
			}
			i++
		}
	}
	toks = append(toks, token{kind: tokEOF, line: line})
	return toks, nil
}

func isIdentStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func isIdentPart(r rune) bool {
	return r == '_' || r == '.' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
