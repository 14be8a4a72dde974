package lexer

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"bitc/internal/corpus"
	"bitc/internal/source"
)

func kindsOf(toks []Token) []Kind {
	ks := make([]Kind, len(toks))
	for i, t := range toks {
		ks[i] = t.Kind
	}
	return ks
}

// tokenize lexes text to the end, returning every token (EOF last) and the
// diagnostics.
func tokenize(text string) ([]Token, *source.Diagnostics) {
	file := source.NewFile("t.bitc", text)
	diags := source.NewDiagnostics(file)
	lx := New(file, diags)
	var toks []Token
	for {
		t := lx.Next()
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, diags
		}
	}
}

func lexOK(t *testing.T, text string) []Token {
	t.Helper()
	toks, diags := tokenize(text)
	if diags.HasErrors() {
		t.Fatalf("lex %q: %v", text, diags)
	}
	return toks
}

func TestBasicTokens(t *testing.T) {
	toks := lexOK(t, "(foo bar-baz set! +)")
	want := []Kind{LParen, Symbol, Symbol, Symbol, Symbol, RParen, EOF}
	got := kindsOf(toks)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
	text := "(foo bar-baz set! +)"
	if toks[1].Text(text) != "foo" || toks[2].Text(text) != "bar-baz" || toks[3].Text(text) != "set!" || toks[4].Text(text) != "+" {
		t.Errorf("texts wrong: %q %q %q %q", toks[1].Text(text), toks[2].Text(text), toks[3].Text(text), toks[4].Text(text))
	}
}

func TestBrackets(t *testing.T) {
	toks := lexOK(t, "[a]")
	want := []Kind{LBracket, Symbol, RBracket, EOF}
	if fmt.Sprint(kindsOf(toks)) != fmt.Sprint(want) {
		t.Fatalf("kinds = %v", kindsOf(toks))
	}
}

func TestIntegers(t *testing.T) {
	cases := map[string]int64{
		"0":                   0,
		"42":                  42,
		"-7":                  -7,
		"+13":                 13,
		"0xff":                255,
		"0xFF":                255,
		"0b1010":              10,
		"0o17":                15,
		"1_000":               1000,
		"-0x10":               -16,
		"9223372036854775807": 9223372036854775807,
	}
	for text, want := range cases {
		toks := lexOK(t, text)
		if toks[0].Kind != Int {
			t.Errorf("%q: kind = %v", text, toks[0].Kind)
			continue
		}
		if toks[0].Int() != want {
			t.Errorf("%q = %d, want %d", text, toks[0].Int(), want)
		}
	}
}

func TestFloats(t *testing.T) {
	cases := map[string]float64{
		"3.14":   3.14,
		"-0.5":   -0.5,
		"1e9":    1e9,
		"2.5e-3": 2.5e-3,
		"1E+2":   100,
	}
	for text, want := range cases {
		toks := lexOK(t, text)
		if toks[0].Kind != Float {
			t.Errorf("%q: kind = %v, want Float", text, toks[0].Kind)
			continue
		}
		if toks[0].Float() != want {
			t.Errorf("%q = %g, want %g", text, toks[0].Float(), want)
		}
	}
}

func TestMinusIsSymbolWithoutDigit(t *testing.T) {
	toks := lexOK(t, "(- a 1)")
	if toks[1].Kind != Symbol || toks[1].Text("(- a 1)") != "-" {
		t.Errorf("got %v %q", toks[1].Kind, toks[1].Text("(- a 1)"))
	}
}

func TestBooleans(t *testing.T) {
	toks := lexOK(t, "#t #f")
	if toks[0].Kind != Bool || toks[0].Int() != 1 {
		t.Errorf("#t = %v/%d", toks[0].Kind, toks[0].Int())
	}
	if toks[1].Kind != Bool || toks[1].Int() != 0 {
		t.Errorf("#f = %v/%d", toks[1].Kind, toks[1].Int())
	}
}

func TestChars(t *testing.T) {
	cases := map[string]rune{
		`#\a`:       'a',
		`#\Z`:       'Z',
		`#\newline`: '\n',
		`#\space`:   ' ',
		`#\tab`:     '\t',
		`#\0`:       '0',
		`#\é`:       'é',
	}
	for text, want := range cases {
		toks := lexOK(t, text)
		if toks[0].Kind != Char || toks[0].Int() != int64(want) {
			t.Errorf("%q = %v/%d, want Char/%d", text, toks[0].Kind, toks[0].Int(), want)
		}
	}
}

func TestBadCharName(t *testing.T) {
	_, diags := tokenize(`#\bogusname`)
	if !diags.HasErrors() {
		t.Fatal("expected error for unknown char name")
	}
}

func TestStrings(t *testing.T) {
	cases := map[string]string{
		`"hello"`:       "hello",
		`"a\nb"`:        "a\nb",
		`"tab\there"`:   "tab\there",
		`"quote\"in"`:   `quote"in`,
		`"back\\slash"`: `back\slash`,
		`"hex\x41!"`:    "hexA!",
		`""`:            "",
	}
	for text, want := range cases {
		toks := lexOK(t, text)
		if got := Unquote(toks[0].Text(text)); toks[0].Kind != String || got != want {
			t.Errorf("%s = %v/%q, want String/%q", text, toks[0].Kind, got, want)
		}
	}
}

func TestUnterminatedString(t *testing.T) {
	_, diags := tokenize(`"abc`)
	if !diags.HasErrors() {
		t.Fatal("expected unterminated string error")
	}
	_, diags = tokenize("\"abc\ndef\"")
	if !diags.HasErrors() {
		t.Fatal("expected error for newline in string")
	}
}

func TestKeywords(t *testing.T) {
	text := ":packed :requires"
	toks := lexOK(t, text)
	if toks[0].Kind != Keyword || toks[0].Text(text) != ":packed" {
		t.Errorf("got %v %q", toks[0].Kind, toks[0].Text(text))
	}
	if toks[1].Text(text) != ":requires" {
		t.Errorf("got %q", toks[1].Text(text))
	}
}

func TestComments(t *testing.T) {
	text := "a ; line comment\nb #| block #| nested |# comment |# c"
	toks := lexOK(t, text)
	var syms []string
	for _, tk := range toks {
		if tk.Kind == Symbol {
			syms = append(syms, tk.Text(text))
		}
	}
	if strings.Join(syms, " ") != "a b c" {
		t.Errorf("symbols = %v", syms)
	}
}

func TestUnterminatedBlockComment(t *testing.T) {
	_, diags := tokenize("#| never closed")
	if !diags.HasErrors() {
		t.Fatal("expected unterminated block comment error")
	}
}

func TestQuoteToken(t *testing.T) {
	toks := lexOK(t, "'a")
	if toks[0].Kind != Quote || toks[1].Kind != Symbol {
		t.Errorf("kinds = %v", kindsOf(toks))
	}
}

func TestSpansCoverText(t *testing.T) {
	text := "(define x 42)"
	toks := lexOK(t, text)
	want := []string{"(", "define", "x", "42", ")"}
	for i, tk := range toks[:len(toks)-1] {
		if !tk.Span.IsValid() || tk.Span.End <= tk.Span.Start {
			t.Errorf("token %d has degenerate span %+v", i, tk.Span)
			continue
		}
		if got := tk.Text(text); got != want[i] {
			t.Errorf("token %d text %q, want %q", i, got, want[i])
		}
	}
}

func TestIntegerOverflowReported(t *testing.T) {
	_, diags := tokenize("99999999999999999999999999")
	if !diags.HasErrors() {
		t.Fatal("expected overflow diagnostic")
	}
}

func TestCommaIsWhitespace(t *testing.T) {
	toks := lexOK(t, "a, b")
	if len(toks) != 3 { // a b EOF
		t.Fatalf("tokens = %v", kindsOf(toks))
	}
}

// Property: the lexer always terminates and always ends with EOF, for
// arbitrary byte soup.
func TestLexerTotal(t *testing.T) {
	check := func(raw []byte) bool {
		toks, _ := tokenize(string(raw))
		return len(toks) > 0 && toks[len(toks)-1].Kind == EOF
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: lexing the rendered text of an integer round-trips its value.
func TestIntRoundTrip(t *testing.T) {
	check := func(v int64) bool {
		toks, diags := tokenize(fmt.Sprintf("%d", v))
		return !diags.HasErrors() && toks[0].Kind == Int && toks[0].Int() == v
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	for k := EOF; k <= Quote; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty string", k)
		}
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind string")
	}
}

// A number or boolean ends only at a delimiter: one glued to symbol
// characters is lexed as a single malformed token, not split in two.
func TestGluedLiterals(t *testing.T) {
	cases := []struct{ text, tok, msg string }{
		{"2x", "2x", `malformed number literal "2x"`},
		{"1-2", "1-2", `malformed number literal "1-2"`},
		{"0x1g", "0x1g", `malformed number literal "0x1g"`},
		{"1.5x", "1.5x", `malformed number literal "1.5x"`},
		{"1.5.3", "1.5.3", `malformed float literal "1.5.3"`}, // once read as 1.5
		{"-7e", "-7e", `malformed number literal "-7e"`},
		{"1:", "1:", `malformed number literal "1:"`},
		{"#true", "#true", `malformed boolean literal "#true"`},
		{"#f0 x", "#f0", `malformed boolean literal "#f0"`},
	}
	for _, c := range cases {
		toks, diags := tokenize(c.text)
		if diags.Len() != 1 || diags.List[0].Message != c.msg {
			t.Errorf("%q: diagnostics %v, want one %q", c.text, diags, c.msg)
		}
		if got := toks[0].Text(c.text); got != c.tok {
			t.Errorf("%q: first token %q, want %q", c.text, got, c.tok)
		}
	}
	// Delimiters still end a literal.
	for _, text := range []string{"(+ 1 2)", "[1]", "1;c", `1"s"`, "1#t", "#t#f", "1 'a", "#t)"} {
		if _, diags := tokenize(text); diags.HasErrors() {
			t.Errorf("%q: unexpected diagnostics %v", text, diags)
		}
	}
}

// Lexing a large, well-formed file allocates nothing: tokens are values and
// their text stays in the source.
func TestLexAllocatesNothing(t *testing.T) {
	src := corpus.Text(1000, 25)
	file := source.NewFile("corpus.bitc", src)
	diags := source.NewDiagnostics(file)
	n := 0
	allocs := testing.AllocsPerRun(5, func() {
		lx := Lexer{text: src, diags: diags}
		for n = 0; lx.Next().Kind != EOF; n++ {
		}
	})
	if diags.Len() != 0 || n < 10000 {
		t.Fatalf("lexed %d tokens with diagnostics %v", n, diags)
	}
	if allocs != 0 {
		t.Errorf("Lexer.Next allocates %v times per pass over the corpus, want 0", allocs)
	}
}

// Token holds no pointer, so a token stream costs the garbage collector
// nothing to scan.
func TestTokenHasNoPointers(t *testing.T) {
	var walk func(reflect.Type) bool
	walk = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if !walk(ty.Field(i).Type) {
					return false
				}
			}
			return true
		case reflect.Array:
			return walk(ty.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
			return true
		}
		return false
	}
	if !walk(reflect.TypeOf(Token{})) {
		t.Error("lexer.Token contains a pointer")
	}
}

func TestUnquote(t *testing.T) {
	cases := map[string]string{
		`"plain"`:     "plain",
		`"a\nb"`:      "a\nb",
		`"a\qb"`:      "ab", // malformed escape: reported by the lexer, dropped here
		`"a\x4"`:      "a4",
		`"cut`:        "cut",
		"\"line\n":    "line",
		`"esc\"cut`:   `esc"cut`,
		`"trailing\`:  "trailing",
		`"hex\x41\""`: `hexA"`,
	}
	for lit, want := range cases {
		if got := Unquote(lit); got != want {
			t.Errorf("Unquote(%q) = %q, want %q", lit, got, want)
		}
	}
}
