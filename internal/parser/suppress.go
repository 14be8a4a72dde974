package parser

import (
	"strings"

	"bitc/internal/ast"
	"bitc/internal/source"
)

const ignoreDirective = "bitc:ignore"

// scanIgnoreComments collects `; bitc:ignore BITC-XXXX [BITC-YYYY ...]`
// directives. A directive on a line with code mutes findings on that line; a
// standalone comment line mutes findings on the line below it. The scan is
// textual (the lexer discards comments), so a literal "; bitc:ignore" inside
// a string would also register — harmless, since it only ever mutes lints.
// It visits only the lines that mention the directive, in place.
func scanIgnoreComments(f *source.File) []ast.Suppression {
	var out []ast.Suppression
	text := f.Text
	line, lineStart := 0, 0 // 0-based line number of lineStart
	for {
		k := strings.Index(text[lineStart:], ignoreDirective)
		if k < 0 {
			return out
		}
		start := lineStart + strings.LastIndexByte(text[lineStart:lineStart+k], '\n') + 1
		line += strings.Count(text[lineStart:start], "\n")
		end := len(text)
		if nl := strings.IndexByte(text[start:], '\n'); nl >= 0 {
			end = start + nl
		}
		out = appendIgnores(out, text[start:end], line)
		if end == len(text) {
			return out
		}
		line, lineStart = line+1, end+1
	}
}

// appendIgnores appends the suppressions declared on line, the text of
// 0-based line i.
func appendIgnores(out []ast.Suppression, line string, i int) []ast.Suppression {
	ci := strings.Index(line, ";")
	if ci < 0 {
		return out
	}
	di := strings.Index(line[ci:], ignoreDirective)
	if di < 0 {
		return out
	}
	target := i + 1 // 1-based: the directive's own line
	if strings.TrimSpace(line[:ci]) == "" {
		target = i + 2 // standalone comment: applies to the next line
	}
	rest := line[ci+di+len(ignoreDirective):]
	for _, code := range strings.FieldsFunc(rest, func(r rune) bool {
		return r == ' ' || r == '\t' || r == ','
	}) {
		if !strings.HasPrefix(code, "BITC-") {
			break // end of the code list (trailing prose)
		}
		out = append(out, ast.Suppression{Code: code, Line: target})
	}
	return out
}
