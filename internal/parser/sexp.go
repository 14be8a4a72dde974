package parser

import (
	"bitc/internal/lexer"
	"bitc/internal/source"
)

// sexp is the generic S-expression layer the parser builds before recognising
// special forms. Keeping this layer separate makes form recognition plain
// pattern matching instead of token juggling.
type sexp struct {
	span source.Span
	tok  lexer.Token // atom payload; Kind is lexer.EOF for lists
	text string      // atom text as written ("quote" for the ' shorthand)
	list []*sexp     // children of a list
}

func (s *sexp) isList() bool { return s.tok.Kind == lexer.EOF }

// sym returns the symbol text if s is a symbol atom, else "".
func (s *sexp) sym() string {
	if s.tok.Kind == lexer.Symbol {
		return s.text
	}
	return ""
}

// keyword returns the keyword text (with leading colon) if s is a keyword.
func (s *sexp) keyword() string {
	if s.tok.Kind == lexer.Keyword {
		return s.text
	}
	return ""
}

// head returns the leading symbol of a list, or "".
func (s *sexp) head() string {
	if s.isList() && len(s.list) > 0 {
		return s.list[0].sym()
	}
	return ""
}

const (
	// maxDepth bounds list and quote nesting. Deeper input is reported once
	// and skipped, so no input can exhaust the stack of the recursive
	// reader or of the stages that walk the tree it builds.
	maxDepth = 10000
	// chunkSize is the number of nodes, and of child pointers, in one
	// arena chunk.
	chunkSize = 1024
)

// chunks is an arena of T: it hands out runs of slots from fixed-size
// chunks and, on reset, hands the same chunks out again. Slots are handed
// out holding stale values; callers overwrite them.
type chunks[T any] struct {
	bufs [][]T
	i, n int // the chunk in use, and the next free slot in it
}

// take returns n contiguous slots, with capacity n.
func (c *chunks[T]) take(n int) []T {
	if n > chunkSize/4 {
		return make([]T, n) // big runs would strand much of a chunk
	}
	if c.i < len(c.bufs) && c.n+n > chunkSize {
		c.i, c.n = c.i+1, 0
	}
	if c.i == len(c.bufs) {
		c.bufs = append(c.bufs, make([]T, chunkSize))
	}
	s := c.bufs[c.i][c.n : c.n+n : c.n+n]
	c.n += n
	return s
}

func (c *chunks[T]) reset() { c.i, c.n = 0, 0 }

// reader turns the lexer's token stream into sexps, one top-level form at
// a time, with one token of lookahead. Its nodes and child slices live in
// arenas that are reused for every form: the former copies out everything
// it keeps, so no node outlives the form it belongs to.
type reader struct {
	lx    *lexer.Lexer
	src   string
	tok   lexer.Token // the lookahead token
	diags *source.Diagnostics
	depth int

	nodes chunks[sexp]
	ptrs  chunks[*sexp]
	kids  []*sexp // children of the lists being read, innermost last
}

func newReader(file *source.File, diags *source.Diagnostics) *reader {
	r := &reader{lx: lexer.New(file, diags), src: file.Text, diags: diags}
	r.tok = r.lx.Next()
	return r
}

func (r *reader) next() lexer.Token {
	t := r.tok
	if t.Kind != lexer.EOF {
		r.tok = r.lx.Next()
	}
	return t
}

func (r *reader) atEOF() bool { return r.tok.Kind == lexer.EOF }

// form reads the next top-level form, recycling the arenas that held the
// previous one; nil on unrecoverable junk (already reported).
func (r *reader) form() *sexp {
	r.nodes.reset()
	r.ptrs.reset()
	return r.read()
}

func (r *reader) node() *sexp { return &r.nodes.take(1)[0] }

// closeList pops the children pushed since base into an exact-size slice.
func (r *reader) closeList(base int) []*sexp {
	list := r.ptrs.take(len(r.kids) - base)
	copy(list, r.kids[base:])
	r.kids = r.kids[:base]
	return list
}

// read parses one S-expression; nil on unrecoverable junk (already reported).
func (r *reader) read() *sexp {
	t := r.next()
	switch t.Kind {
	case lexer.LParen, lexer.LBracket:
		if r.depth == maxDepth {
			return r.skipDeep(t)
		}
		closer := lexer.RParen
		if t.Kind == lexer.LBracket {
			closer = lexer.RBracket
		}
		r.depth++
		span, base := t.Span, len(r.kids)
		for {
			p := r.tok
			if p.Kind == closer {
				r.next()
				span = span.Union(p.Span)
				break
			}
			if p.Kind == lexer.EOF {
				r.diags.Errorf(t.Span, "unclosed %s", t.Kind)
				break
			}
			if p.Kind == lexer.RParen || p.Kind == lexer.RBracket {
				// Mismatched closer: consume and report, keep going.
				r.next()
				r.diags.Errorf(p.Span, "mismatched %s", p.Kind)
				continue
			}
			if child := r.read(); child != nil {
				r.kids = append(r.kids, child)
				span = span.Union(child.span)
			}
		}
		r.depth--
		n := r.node()
		*n = sexp{span: span, list: r.closeList(base)}
		return n
	case lexer.RParen, lexer.RBracket:
		r.diags.Errorf(t.Span, "unexpected %s", t.Kind)
		return nil
	case lexer.Quote:
		if r.depth == maxDepth {
			return r.skipDeep(t)
		}
		r.depth++
		inner := r.read()
		r.depth--
		if inner == nil {
			r.diags.Errorf(t.Span, "quote requires a following expression")
			return nil
		}
		// 'x is only used for type variables; represent as (quote x).
		q := r.node()
		*q = sexp{span: t.Span, tok: lexer.Token{Kind: lexer.Symbol, Span: t.Span}, text: "quote"}
		r.kids = append(r.kids, q, inner)
		n := r.node()
		*n = sexp{span: t.Span.Union(inner.span), list: r.closeList(len(r.kids) - 2)}
		return n
	case lexer.EOF:
		return nil
	default:
		n := r.node()
		*n = sexp{span: t.Span, tok: t, text: t.Text(r.src)}
		return n
	}
}

// skipDeep reports a datum nested past maxDepth and discards it without
// recursing: t, its opening token (a list opener or a quote), and every
// token up to its matching closer. An empty list spanning the datum stands
// in for it, so the quotes and lists around it stay well formed.
func (r *reader) skipDeep(t lexer.Token) *sexp {
	r.diags.Errorf(t.Span, "nesting too deep: more than %d levels", maxDepth)
	span, depth := t.Span, 0
	for {
		switch t.Kind {
		case lexer.LParen, lexer.LBracket:
			depth++
		case lexer.RParen, lexer.RBracket:
			depth--
		}
		span = span.Union(t.Span)
		if depth == 0 && t.Kind != lexer.Quote {
			break
		}
		if p := r.tok.Kind; p == lexer.EOF || depth == 0 && (p == lexer.RParen || p == lexer.RBracket) {
			break
		}
		t = r.next()
	}
	n := r.node()
	*n = sexp{span: span}
	return n
}
