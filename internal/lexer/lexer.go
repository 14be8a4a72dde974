// Package lexer tokenizes bitc source text. The surface syntax is
// S-expression based (in the BitC tradition), so the token set is small:
// parentheses, atoms (symbols, keywords, numbers, characters, strings), and
// the quote shorthand.
//
// Tokens are streamed: Lexer.Next returns one pointer-free Token at a time
// and allocates nothing unless it reports a diagnostic. A token carries its
// kind, its span and one 64-bit payload; its text is the source slice its
// span covers, and a string literal is decoded only when asked (Unquote).
package lexer

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"bitc/internal/source"
)

// Kind enumerates token kinds.
type Kind int

// Token kinds.
const (
	EOF Kind = iota
	LParen
	RParen
	LBracket
	RBracket
	Symbol  // identifiers and operators: foo, +, set!, vector-ref
	Keyword // :packed, :requires — leading colon
	Int     // 42, -7, 0xff, 0b1010
	Float   // 3.14, -0.5, 1e9
	Char    // #\a, #\newline, #\space
	String  // "hello\n"
	Bool    // #t, #f
	Quote   // '
)

func (k Kind) String() string {
	switch k {
	case EOF:
		return "end of file"
	case LParen:
		return "'('"
	case RParen:
		return "')'"
	case LBracket:
		return "'['"
	case RBracket:
		return "']'"
	case Symbol:
		return "symbol"
	case Keyword:
		return "keyword"
	case Int:
		return "integer"
	case Float:
		return "float"
	case Char:
		return "character"
	case String:
		return "string"
	case Bool:
		return "boolean"
	case Quote:
		return "quote"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Token is a lexeme: its kind, its source span and a decoded payload. It
// holds no pointer; the text is Text(src) of the source it was lexed from.
type Token struct {
	Kind Kind
	Span source.Span
	// Val is the payload: the two's-complement value of an Int, the code
	// point of a Char, 0 or 1 for a Bool, the IEEE-754 bits of a Float.
	Val uint64
}

// Text returns the token's raw text as written in src.
func (t Token) Text(src string) string { return src[t.Span.Start:t.Span.End] }

// Int returns the value of an Int, Char or Bool token.
func (t Token) Int() int64 { return int64(t.Val) }

// Float returns the value of a Float token.
func (t Token) Float() float64 { return math.Float64frombits(t.Val) }

// Lexer walks a source file producing tokens.
type Lexer struct {
	text  string
	diags *source.Diagnostics
	pos   int
}

// New creates a lexer over file, reporting problems into diags.
func New(file *source.File, diags *source.Diagnostics) *Lexer {
	return &Lexer{text: file.Text, diags: diags}
}

func (l *Lexer) peekAt(off int) byte {
	if l.pos+off >= len(l.text) {
		return 0
	}
	return l.text[l.pos+off]
}

func (l *Lexer) skipTrivia() {
	for l.pos < len(l.text) {
		c := l.text[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ',':
			l.pos++
		case c == ';': // line comment
			for l.pos < len(l.text) && l.text[l.pos] != '\n' {
				l.pos++
			}
		case c == '#' && l.peekAt(1) == '|': // block comment, nestable
			depth := 1
			l.pos += 2
			for l.pos < len(l.text) && depth > 0 {
				if l.text[l.pos] == '#' && l.peekAt(1) == '|' {
					depth++
					l.pos += 2
				} else if l.text[l.pos] == '|' && l.peekAt(1) == '#' {
					depth--
					l.pos += 2
				} else {
					l.pos++
				}
			}
			if depth > 0 {
				l.diags.Errorf(span(l.pos, l.pos), "unterminated block comment")
			}
		default:
			return
		}
	}
}

func span(a, b int) source.Span {
	return source.MakeSpan(source.Pos(a), source.Pos(b))
}

// isSymbolRune reports whether r can appear inside a symbol. The set is
// generous, Scheme-style: anything printable that is not a delimiter.
func isSymbolRune(r rune) bool {
	switch r {
	case '(', ')', '[', ']', '"', ';', '\'', ',', '#':
		return false
	}
	return !unicode.IsSpace(r) && unicode.IsPrint(r)
}

// symbolByte is isSymbolRune tabulated for ASCII.
var symbolByte = func() (t [utf8.RuneSelf]bool) {
	for c := range t {
		t[c] = isSymbolRune(rune(c))
	}
	return t
}()

// symbolEnd returns the offset just past the run of symbol characters that
// starts at pos.
func (l *Lexer) symbolEnd(pos int) int {
	for pos < len(l.text) {
		if c := l.text[pos]; c < utf8.RuneSelf {
			if !symbolByte[c] {
				break
			}
			pos++
			continue
		}
		r, size := utf8.DecodeRuneInString(l.text[pos:])
		if !isSymbolRune(r) {
			break
		}
		pos += size
	}
	return pos
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token, emitting diagnostics for malformed input.
// Bytes that start no token are reported and skipped.
func (l *Lexer) Next() Token {
	for {
		l.skipTrivia()
		start := l.pos
		if l.pos >= len(l.text) {
			return Token{Kind: EOF, Span: span(start, start)}
		}
		c := l.text[l.pos]
		var kind Kind
		switch {
		case c == '(':
			kind = LParen
		case c == ')':
			kind = RParen
		case c == '[':
			kind = LBracket
		case c == ']':
			kind = RBracket
		case c == '\'':
			kind = Quote
		case c == '"':
			return l.lexString()
		case c == '#':
			if t, ok := l.lexHash(); ok {
				return t
			}
			continue
		case c == ':':
			return l.lexKeyword()
		case isDigit(c) || ((c == '-' || c == '+') && isDigit(l.peekAt(1))):
			return l.lexNumber()
		default:
			if l.pos = l.symbolEnd(start); l.pos > start {
				return Token{Kind: Symbol, Span: span(start, l.pos)}
			}
			// Unlexable byte: report and skip so the lexer always progresses.
			l.pos++
			l.diags.Errorf(span(start, l.pos), "unexpected character %q", c)
			continue
		}
		l.pos++
		return Token{Kind: kind, Span: span(start, l.pos)}
	}
}

func (l *Lexer) lexKeyword() Token {
	start := l.pos
	l.pos = l.symbolEnd(l.pos + 1) // ':' is itself a symbol character
	if l.pos == start+1 {
		l.diags.Errorf(span(start, l.pos), "empty keyword")
	}
	return Token{Kind: Keyword, Span: span(start, l.pos)}
}

// unglued reports whether the literal that ends at l.pos ends at a
// delimiter. If it runs straight into symbol characters instead, unglued
// takes the whole run as the literal's text and reports it as malformed.
func (l *Lexer) unglued(start int, what string) bool {
	end := l.symbolEnd(l.pos)
	if end == l.pos {
		return true
	}
	l.pos = end
	l.diags.Errorf(span(start, end), "malformed %s literal %q", what, l.text[start:end])
	return false
}

func (l *Lexer) lexNumber() Token {
	start := l.pos
	if c := l.text[l.pos]; c == '-' || c == '+' {
		l.pos++
	}
	base := 10
	if l.text[l.pos] == '0' {
		switch l.peekAt(1) {
		case 'x', 'X':
			base = 16
		case 'b', 'B':
			base = 2
		case 'o', 'O':
			base = 8
		}
		if base != 10 {
			l.pos += 2
		}
	}
	digitStart := l.pos
	isFloat := false
scan:
	for l.pos < len(l.text) {
		c := l.text[l.pos]
		switch {
		case isDigit(c),
			base == 16 && ((c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')),
			c == '_':
			l.pos++
		case base == 10 && c == '.' && isDigit(l.peekAt(1)):
			isFloat = true
			l.pos++
		case base == 10 && (c == 'e' || c == 'E') &&
			(isDigit(l.peekAt(1)) || ((l.peekAt(1) == '+' || l.peekAt(1) == '-') && isDigit(l.peekAt(2)))):
			isFloat = true
			l.pos += 2 // consume 'e' and sign-or-digit; remaining digits loop
		default:
			break scan
		}
	}
	ok := l.unglued(start, "number")
	tok := Token{Kind: Int, Span: span(start, l.pos)}
	if !ok {
		return tok
	}
	text := l.text[start:l.pos]
	if l.pos == digitStart {
		l.diags.Errorf(tok.Span, "number %q has no digits", text)
		return tok
	}
	if isFloat {
		tok.Kind = Float
		f, err := strconv.ParseFloat(strings.ReplaceAll(text, "_", ""), 64)
		if err != nil {
			l.diags.Errorf(tok.Span, "malformed float literal %q", text)
			f = 0
		}
		tok.Val = math.Float64bits(f)
		return tok
	}
	var v uint64
	for i := digitStart; i < l.pos; i++ {
		if l.text[i] == '_' {
			continue
		}
		d := digitVal(l.text[i])
		if d < 0 || d >= base {
			l.diags.Errorf(tok.Span, "digit %q invalid in base-%d literal", l.text[i], base)
			break
		}
		nv := v*uint64(base) + uint64(d)
		if nv < v {
			l.diags.Errorf(tok.Span, "integer literal %q overflows 64 bits", text)
			break
		}
		v = nv
	}
	if text[0] == '-' {
		v = -v
	}
	tok.Val = v
	return tok
}

func digitVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	default:
		return -1
	}
}

var namedChars = map[string]rune{
	"newline": '\n',
	"space":   ' ',
	"tab":     '\t',
	"return":  '\r',
	"nul":     0,
	"null":    0,
}

// lexHash lexes a token that starts with '#'. It returns false, having
// reported the sequence, when the '#' starts no token.
func (l *Lexer) lexHash() (Token, bool) {
	start := l.pos
	l.pos++ // '#'
	switch l.peekAt(0) {
	case 't', 'f':
		tok := Token{Kind: Bool}
		if l.text[l.pos] == 't' {
			tok.Val = 1
		}
		l.pos++
		l.unglued(start, "boolean")
		tok.Span = span(start, l.pos)
		return tok, true
	case '\\':
		l.pos++
		nameStart := l.pos
		l.pos = l.symbolEnd(l.pos)
		name := l.text[nameStart:l.pos]
		tok := Token{Kind: Char, Span: span(start, l.pos)}
		switch {
		case name == "" && l.pos < len(l.text):
			// Delimiter character like #\( — take one rune literally.
			r, size := utf8.DecodeRuneInString(l.text[l.pos:])
			l.pos += size
			tok.Span = span(start, l.pos)
			tok.Val = uint64(r)
		case utf8.RuneCountInString(name) == 1: // #\a, #\é: the character itself
			r, _ := utf8.DecodeRuneInString(name)
			tok.Val = uint64(r)
		default:
			if r, ok := namedChars[name]; ok {
				tok.Val = uint64(r)
			} else {
				l.diags.Errorf(tok.Span, "unknown character name %q", name)
			}
		}
		return tok, true
	default:
		l.diags.Errorf(span(start, l.pos+1), "unexpected '#' sequence")
		l.pos++
		return Token{}, false
	}
}

// lexString scans a string literal, reporting malformed escapes and a
// missing closing quote; the value is decoded later by Unquote. A literal
// broken by a newline ends after the newline.
func (l *Lexer) lexString() Token {
	start := l.pos
	for l.pos++; l.pos < len(l.text); {
		switch l.text[l.pos] {
		case '"':
			l.pos++
			return Token{Kind: String, Span: span(start, l.pos)}
		case '\\':
			if l.pos+1 >= len(l.text) {
				l.pos = len(l.text)
				break
			}
			_, next, ok := unescape(l.text, l.pos+1)
			if !ok {
				if l.text[l.pos+1] == 'x' {
					l.diags.Errorf(span(l.pos, next), `\x escape needs two hex digits`)
				} else {
					l.diags.Errorf(span(l.pos, next), "unknown escape \\%c", l.text[l.pos+1])
				}
			}
			l.pos = next
		case '\n':
			l.diags.Errorf(span(start, l.pos), "unterminated string literal")
			l.pos++
			return Token{Kind: String, Span: span(start, l.pos)}
		default:
			l.pos++
		}
	}
	l.diags.Errorf(span(start, l.pos), "unterminated string literal")
	return Token{Kind: String, Span: span(start, l.pos)}
}

// unescape decodes the escape sequence whose letter is s[i], just after a
// backslash. It returns the byte the sequence stands for and the offset just
// past it. A malformed sequence (ok false) stands for no byte and ends after
// its letter.
func unescape(s string, i int) (c byte, next int, ok bool) {
	switch e := s[i]; e {
	case 'n':
		return '\n', i + 1, true
	case 't':
		return '\t', i + 1, true
	case 'r':
		return '\r', i + 1, true
	case '0':
		return 0, i + 1, true
	case '\\', '"':
		return e, i + 1, true
	case 'x':
		if i+2 < len(s) {
			hi, lo := digitVal(s[i+1]), digitVal(s[i+2])
			if hi >= 0 && lo >= 0 {
				return byte(hi<<4 | lo), i + 3, true
			}
		}
	}
	return 0, i + 1, false
}

// Unquote decodes the text of a String token — its opening quote up to and
// including the closing quote, or to the newline or end of text that cut it
// short. Malformed escapes, already reported by the lexer, are dropped. A
// literal without escapes is returned as a slice of lit.
func Unquote(lit string) string {
	body := lit[1:]
	esc := strings.IndexByte(body, '\\')
	if esc < 0 {
		if n := len(body); n > 0 && (body[n-1] == '"' || body[n-1] == '\n') {
			return body[:n-1]
		}
		return body
	}
	b := make([]byte, 0, len(body))
	b = append(b, body[:esc]...)
	for i := esc; i < len(body); {
		switch c := body[i]; c {
		case '"', '\n':
			return string(b)
		case '\\':
			if i+1 >= len(body) {
				return string(b)
			}
			d, next, ok := unescape(body, i+1)
			if ok {
				b = append(b, d)
			}
			i = next
		default:
			b = append(b, c)
			i++
		}
	}
	return string(b)
}
