// Package analysis is the repo's static-analysis suite: four custom
// analyzers that mechanize the correctness contracts DESIGN.md states as
// prose — determinism of simulation semantics (nodeterminism),
// reset-completeness of the arena lifecycle (resetcomplete), the hot-path
// closure/allocation discipline (hotpath), and acquire/release pairing of
// the pooled arenas (poolpair).
//
// The framework mirrors the golang.org/x/tools/go/analysis API surface
// (Analyzer, Pass, Diagnostic, analysistest-style fixtures under
// testdata/src) so analyzers can be ported to the upstream driver
// verbatim if the dependency ever becomes available; the toolchain here is
// dependency-free and loads packages itself via `go list` + go/types (see
// load.go). cmd/slinfer-lint is the multichecker.
//
// Pragma grammar (all directives are line comments, no space after //):
//
//	//slinfer:hotpath
//	    On a function's doc comment: opts the function into the hotpath
//	    analyzer's allocation discipline.
//	//slinfer:resetsafe <reason>
//	    On a struct field: exempts the field from resetcomplete. The
//	    reason is mandatory.
//	//slinfer:wallclock <reason>
//	    On or immediately above a statement (or on the enclosing
//	    function's doc comment): permits time.Now / wall-clock reads at
//	    that site. The reason must prove the value never feeds event
//	    times. Mandatory reason.
//	//slinfer:maporder <reason>
//	    On or immediately above a range-over-map statement: asserts the
//	    body's effects are iteration-order-insensitive. Mandatory reason.
//	//slinfer:poolpair <reason>
//	    On or immediately above an AcquireArena statement: exempts that
//	    acquisition from poolpair. Mandatory reason.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one analysis: a name, prose documentation, and a Run
// function applied once per package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one package's syntax and type information to an analyzer,
// plus the Report sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	pragmas map[*ast.File]map[int]string // lazily built per file: line -> directive
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Pragma holds one parsed //slinfer:* directive.
type Pragma struct {
	Name   string // e.g. "hotpath", "resetsafe"
	Reason string // text after the directive name (may be empty)
}

// ParsePragma extracts a //slinfer: directive from one comment's text, or
// ok=false when the comment is not a directive.
func ParsePragma(text string) (Pragma, bool) {
	const prefix = "//slinfer:"
	if !strings.HasPrefix(text, prefix) {
		return Pragma{}, false
	}
	body := strings.TrimPrefix(text, prefix)
	name, reason, _ := strings.Cut(body, " ")
	return Pragma{Name: name, Reason: strings.TrimSpace(reason)}, true
}

// CommentPragma scans a comment group for a named directive.
func CommentPragma(cg *ast.CommentGroup, name string) (Pragma, bool) {
	if cg == nil {
		return Pragma{}, false
	}
	for _, c := range cg.List {
		if p, ok := ParsePragma(c.Text); ok && p.Name == name {
			return p, true
		}
	}
	return Pragma{}, false
}

// filePragmas builds (and caches) the line -> directive index for a file:
// every //slinfer:* comment in the file keyed by the line it sits on.
func (p *Pass) filePragmas(f *ast.File) map[int]string {
	if p.pragmas == nil {
		p.pragmas = make(map[*ast.File]map[int]string)
	}
	if m, ok := p.pragmas[f]; ok {
		return m
	}
	m := make(map[int]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if pr, ok := ParsePragma(c.Text); ok {
				m[p.Fset.Position(c.Pos()).Line] = pr.Name
			}
		}
	}
	p.pragmas[f] = m
	return m
}

// fileOf returns the *ast.File containing pos.
func (p *Pass) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// LinePragma reports whether the named directive appears on node's line or
// on the line immediately above it — the two placements the grammar allows
// for statement-level pragmas (trailing comment or own-line comment).
func (p *Pass) LinePragma(node ast.Node, name string) bool {
	f := p.fileOf(node.Pos())
	if f == nil {
		return false
	}
	m := p.filePragmas(f)
	line := p.Fset.Position(node.Pos()).Line
	return m[line] == name || m[line-1] == name
}

// FuncPragma reports whether the enclosing function declaration's doc
// comment carries the named directive. enclosing must be the *ast.FuncDecl
// the node sits in (callers track it while walking).
func FuncPragma(decl *ast.FuncDecl, name string) bool {
	if decl == nil {
		return false
	}
	_, ok := CommentPragma(decl.Doc, name)
	return ok
}
