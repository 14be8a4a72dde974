package parser

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bitc/internal/ast"
	"bitc/internal/source"
)

// splitIgnoreComments is the line-splitting scan scanIgnoreComments
// replaced, kept as its reference.
func splitIgnoreComments(text string) []ast.Suppression {
	var out []ast.Suppression
	for i, line := range strings.Split(text, "\n") {
		out = appendIgnores(out, line, i)
	}
	return out
}

func TestScanIgnoreComments(t *testing.T) {
	inputs := []string{
		"",
		"bitc:ignore BITC-A",
		"; bitc:ignore BITC-A",
		"(f) ; bitc:ignore BITC-A BITC-B, BITC-C prose BITC-D",
		"(f)\n  ; bitc:ignore BITC-A\n(g)",
		"(f \"; bitc:ignore BITC-S\") ; bitc:ignore BITC-T\r\n",
		"bitc:ignore ; bitc:ignore BITC-A\nbitc:ignore\n\n; bitc:ignore BITC-B",
		"\n\n\n;bitc:ignoreBITC-A\n",
	}
	frags := []string{"\n", " ", ";", "(f)", "bitc:ignore", " BITC-A", ",BITC-B", "prose", "\t"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		var b strings.Builder
		for j := rng.Intn(20); j > 0; j-- {
			b.WriteString(frags[rng.Intn(len(frags))])
		}
		inputs = append(inputs, b.String())
	}
	for _, text := range inputs {
		got := scanIgnoreComments(source.NewFile("t", text))
		if want := splitIgnoreComments(text); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%q: got %v, want %v", text, got, want)
		}
	}
}
