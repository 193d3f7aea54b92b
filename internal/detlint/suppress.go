package detlint

import (
	"go/ast"
	"go/token"
	"strings"
)

// This file implements the //detlint:allow suppression mechanism. A
// finding is silenced by a directive on the finding's own line (a
// trailing comment) or on the line directly above it:
//
//	//detlint:allow seedrule Stream IS the (seed, name) derivation rule
//
// The first field after the directive names the analyzer being
// silenced; everything after it is the mandatory reason. Three ways a
// directive can rot are themselves findings, reported under the
// MetaAnalyzer name and never suppressible:
//
//   - no reason given (suppressions must say why),
//   - an analyzer name elvet does not register (typo or removed check),
//   - a stale directive whose analyzer ran but produced no finding on
//     the covered lines (the code was fixed; the excuse must go too).

const allowPrefix = "detlint:allow"

// A directive is one parsed //detlint:allow comment.
type directive struct {
	pos      token.Position
	analyzer string
	reason   string
	used     bool
}

// collectDirectives extracts every //detlint:allow comment from the
// package's files. Malformed directives are kept (with empty analyzer
// or reason) so applyDirectives can report them.
func collectDirectives(fset *token.FileSet, files []*ast.File) []*directive {
	var dirs []*directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+allowPrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				d := &directive{pos: fset.Position(c.Pos())}
				if len(fields) > 0 {
					d.analyzer = fields[0]
				}
				if len(fields) > 1 {
					d.reason = strings.Join(fields[1:], " ")
				}
				dirs = append(dirs, d)
			}
		}
	}
	return dirs
}

// applyDirectives filters raw findings through the directives and
// appends the suppression mechanism's own findings. known is the full
// registered-analyzer set (for the unknown-name check); ran is the set
// that actually executed this run (staleness is only decidable for
// analyzers that ran).
func applyDirectives(raw []Finding, dirs []*directive, known, ran map[string]bool) []Finding {
	var out []Finding
	for _, f := range raw {
		if d := matchDirective(dirs, f); d != nil {
			d.used = true
			continue
		}
		out = append(out, f)
	}
	for _, d := range dirs {
		switch {
		case d.analyzer == "" || d.reason == "":
			out = append(out, Finding{
				Pos:      d.pos,
				Analyzer: MetaAnalyzer,
				Message:  "malformed //detlint:allow directive: need an analyzer name and a reason (//detlint:allow <analyzer> <reason>)",
			})
		case !known[d.analyzer]:
			out = append(out, Finding{
				Pos:      d.pos,
				Analyzer: MetaAnalyzer,
				Message:  "//detlint:allow names unknown analyzer \"" + d.analyzer + "\"; see elvet -list",
			})
		case ran[d.analyzer] && !d.used:
			out = append(out, Finding{
				Pos:      d.pos,
				Analyzer: MetaAnalyzer,
				Message:  "stale //detlint:allow: no " + d.analyzer + " finding on this line or the next; delete the directive",
			})
		}
	}
	return out
}

// matchDirective returns the first well-formed directive that covers
// the finding: same file, same analyzer, on the finding's line or the
// line above. Malformed directives (missing reason) never match, so an
// excuse-free suppression cannot silence anything.
func matchDirective(dirs []*directive, f Finding) *directive {
	if f.Analyzer == MetaAnalyzer {
		return nil
	}
	for _, d := range dirs {
		if d.analyzer != f.Analyzer || d.reason == "" {
			continue
		}
		if d.pos.Filename != f.Pos.Filename {
			continue
		}
		if d.pos.Line == f.Pos.Line || d.pos.Line == f.Pos.Line-1 {
			return d
		}
	}
	return nil
}
