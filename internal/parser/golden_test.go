package parser

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"bitc/internal/ast"
	"bitc/internal/corpus"
	"bitc/internal/source"
)

var updateParseGolden = flag.Bool("update-parse", false, "rewrite testdata/parse.golden")

// goldenInputs returns the named inputs pinned by testdata/parse.golden: the
// shipped examples, the core test programs, a generated corpus, the FuzzLoad
// seeds and a set of malformed inputs that exercise every reader and lexer
// recovery path.
func goldenInputs(t *testing.T) [][2]string {
	t.Helper()
	var in [][2]string
	files, err := filepath.Glob("../../examples/progs/*.bitc")
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir("../core/testdata", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".bitc") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, [2]string{filepath.ToSlash(strings.TrimPrefix(f, "../")), string(b)})
	}
	in = append(in, [2]string{"corpus.Text(100, 25)", corpus.Text(100, 25)})
	for i, s := range fuzzLoadSeeds {
		in = append(in, [2]string{fmt.Sprintf("fuzzload-seed-%d", i), s})
	}
	for i, s := range malformedInputs {
		in = append(in, [2]string{fmt.Sprintf("malformed-%d", i), s})
	}
	return in
}

// fuzzLoadSeeds is the seed corpus of core.FuzzLoad as the golden was
// captured; the glued-literal seeds added to FuzzLoad since then lex
// differently on purpose and are pinned by the lexer's own tests.
var fuzzLoadSeeds = []string{
	`(define (main) int64 42)`,
	`(defstruct p :packed (a (bitfield uint8 4)) (b (bitfield uint8 4)))`,
	`(defunion l (N) (C (h int64) (t l)))`,
	`(define (f (x int64)) int64 :requires (> x 0) :ensures (> %result 0) (+ x 1))`,
	`(define (f) unit (with-region r (alloc-in r (vector 1 2 3)) ()))`,
	`(define (f) int64 (let ((mutable i 0)) (while (< i 9) :invariant (>= i 0) (set! i (+ i 1))) i))`,
	`(define (f) unit (atomic (with-lock m (assert #t))))`,
	"(define (f)",
	")))((",
	`#| nested #| comment |# |# (define x 1)`,
	"\x00\xff\xfe",
	`(define (f (x 'a)) 'a x)`,
	`(defunion * (A) (B))`,
	`(defstruct * (x int64))`,
	`(defstruct int64 (x int64)) (define (f (p int64)) int64 (field p x))`,
}

var malformedInputs = []string{
	"(define (f) int64 (+ 1 2)",                       // unclosed
	"(define (f) int64 (+ 1 2)))",                     // stray closer
	"(define (f) int64 (+ 1 2]) (define x 1)",         // mismatched closer
	"[define x 1)",                                    // mismatched outer closer
	`(define s string "a\qb")`,                        // unknown escape
	`(define s string "a\x4")`,                        // short \x escape
	`(define s string "unterminated`,                  // string runs to EOF
	"(define s string \"broken\nline\") (define y 2)", // newline in string
	"(define x 1) #| never closed",                    // unterminated block comment
	"(define x #q 1)",                                 // unknown # sequence
	"(define x #\\bogus)",                             // unknown character name
	"(define (f) char #\\( )",                         // delimiter character
	"(define x ')",                                    // quote without operand
	"(define x 99999999999999999999999)",              // integer overflow
	"(define x 0b102)",                                // bad binary digit
	"(define x 0x)",                                   // prefix without digits
	"(define x -1_000) (define y 0xff_ff) (define z 2.5e-3) (define w -0.5)",
	`(define (f) unit (suppress "BITC-RACE001" (g)))`,
	"(define x 1) ; bitc:ignore BITC-DEAD001, BITC-DEF001 trailing prose\n; bitc:ignore BITC-X\n(define y 2)",
	"(define x :) (define y \x01)",
	"(defstruct s :align x (a int64)) (external f (-> () unit) \"f\\tx\")",
	"(define (f) int64 (case 1 (1 2) (\"s\" 3) (#\\a 4) (#t 5) (_ 6) ((C x) 7)))",
	"; only a comment",
	"",
}

// dumpNode renders n and everything below it: each node's concrete type,
// span and scalar fields, one node per line, indented by depth. It reaches
// every node of the tree, including the types, parameters and patterns that
// ast.Walk does not visit.
func dumpNode(b *strings.Builder, v reflect.Value, depth int) {
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if v.IsNil() {
			return
		}
		dumpNode(b, v.Elem(), depth)
		return
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			dumpNode(b, v.Index(i), depth)
		}
		return
	case reflect.Struct:
	default:
		return
	}
	if v.Type() == reflect.TypeOf(source.Span{}) {
		return
	}
	fmt.Fprintf(b, "%s%s", strings.Repeat("  ", depth), v.Type().Name())
	var kids []reflect.Value
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.String, reflect.Int, reflect.Int64, reflect.Int32, reflect.Bool, reflect.Float64:
			fmt.Fprintf(b, " %s=%#v", name, f.Interface())
		case reflect.Struct:
			if sp, ok := f.Interface().(source.Span); ok {
				fmt.Fprintf(b, " %s=%d-%d", name, sp.Start, sp.End)
				continue
			}
			kids = append(kids, f)
		default:
			kids = append(kids, f)
		}
	}
	b.WriteByte('\n')
	for _, k := range kids {
		dumpNode(b, k, depth+1)
	}
}

// renderParse renders everything Parse returns for one input: the printed
// program, the full node dump with spans, the suppressions and the sorted
// rendered diagnostics.
func renderParse(name, text string) string {
	prog, diags := Parse(name, text)
	printed := ast.PrintProgram(prog)
	if strings.IndexFunc(printed, func(r rune) bool { return r != '\n' && !unicode.IsPrint(r) }) >= 0 {
		printed = strconv.Quote(printed) // keep the golden a text file
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s\n--- print\n%s\n--- nodes\n", name, printed)
	for _, d := range prog.Defs {
		dumpNode(&b, reflect.ValueOf(d), 0)
	}
	b.WriteString("--- suppressions\n")
	for _, s := range prog.Suppressions {
		fmt.Fprintf(&b, "%s span=%d-%d line=%d\n", s.Code, s.Span.Start, s.Span.End, s.Line)
	}
	b.WriteString("--- diagnostics\n")
	if diags.Len() > 0 {
		b.WriteString(diags.Error())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestParseGolden pins the parser's complete output — AST, every span,
// suppressions and diagnostics — over a fixed input set, so any change to
// the lexer or reader must reproduce it byte for byte. Regenerate with
// `go test ./internal/parser -run TestParseGolden -update-parse` only for a
// deliberate change to the language.
func TestParseGolden(t *testing.T) {
	var b strings.Builder
	for _, in := range goldenInputs(t) {
		b.WriteString(renderParse(in[0], in[1]))
	}
	got := b.String()
	const path = "testdata/parse.golden"
	if *updateParseGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-parse)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("parse output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("parse output differs from %s in length: %d lines, want %d", path, len(gl), len(wl))
}
