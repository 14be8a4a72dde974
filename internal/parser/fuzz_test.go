package parser

import (
	"reflect"
	"strings"
	"testing"

	"bitc/internal/ast"
	"bitc/internal/source"
)

// FuzzParse holds the parser to three properties on any input: it does not
// panic; every node's span lies inside the text and inside its parent's
// span; and a program that parses without diagnostics prints to text that
// re-parses without diagnostics and prints identically. `go test` runs the
// seeds; `go test -fuzz=FuzzParse ./internal/parser` explores further.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzLoadSeeds {
		f.Add(s)
	}
	for _, s := range malformedInputs {
		f.Add(s)
	}
	for _, s := range []string{
		`(define (f (x int64)) int64 (case x (0 "zero\n") (_ #\a)))`,
		`(define (g) unit (suppress "BITC-RACE001" (let* ((a 1.5e3) (b 0x_ff)) ())))`,
		`(define (h) (+ 1 2x))`,
		`(define s string "\x01\x7f\"\\\t")`,
		strings.Repeat("(", 100) + strings.Repeat(")", 100),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, diags := Parse("fuzz.bitc", src)
		whole := source.MakeSpan(0, source.Pos(len(src)))
		for _, d := range prog.Defs {
			checkSpans(t, reflect.ValueOf(d), whole)
		}
		if diags.Len() > 0 {
			return
		}
		printed := ast.PrintProgram(prog)
		again, diags := Parse("printed.bitc", printed)
		if diags.Len() > 0 {
			t.Fatalf("printed program does not re-parse: %v\nprinted: %q", diags, printed)
		}
		if p2 := ast.PrintProgram(again); p2 != printed {
			t.Fatalf("print is not stable:\n 1: %q\n 2: %q", printed, p2)
		}
	})
}

// checkSpans requires every node under v to have a span inside parent.
func checkSpans(t *testing.T, v reflect.Value, parent source.Span) {
	t.Helper()
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if !v.IsNil() {
			checkSpans(t, v.Elem(), parent)
		}
		return
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			checkSpans(t, v.Index(i), parent)
		}
		return
	case reflect.Struct:
	default:
		return
	}
	if n, ok := addrNode(v); ok {
		sp := n.Span()
		if sp.Start < parent.Start || sp.End > parent.End || sp.End < sp.Start {
			t.Fatalf("%T span %d-%d is outside its parent's %d-%d", n, sp.Start, sp.End, parent.Start, parent.End)
		}
		parent = sp
	}
	for i := 0; i < v.NumField(); i++ {
		checkSpans(t, v.Field(i), parent)
	}
}

func addrNode(v reflect.Value) (ast.Node, bool) {
	if !v.CanAddr() {
		return nil, false
	}
	n, ok := v.Addr().Interface().(ast.Node)
	return n, ok
}
