package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"slices"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// The suppression directive. A finding is suppressed by writing
//
//	//ironman:allow(<analyzer>[,<analyzer>...]) <reason>
//
// either trailing the offending line or alone on the line immediately
// above it: a trailing directive claims only its own line, a directive
// alone on its line claims only the next one. The reason is mandatory:
// a directive without one does not suppress — the finding is reported
// with a note instead — so every silenced invariant violation carries
// its audit trail in the source. A directive that suppresses nothing is
// itself reported by the analyzer it names, so a stale reason cannot
// outlive the finding it excused. The deadexport module check honours
// no directive: it reports every one naming it.
const allowPrefix = "ironman:allow("

var allowRe = regexp.MustCompile(`^ironman:allow\(([^)]*)\)[ \t]*(.*)$`)

// ParseAllow parses one comment's text (with the // or /* */ markers
// already stripped, as go/ast stores it) as a suppression directive.
// ok reports whether the text is an ironman:allow directive at all;
// names and reason are its parsed parts (reason may be empty, which
// report treats as malformed).
func ParseAllow(text string) (names []string, reason string, ok bool) {
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, allowPrefix) {
		return nil, "", false
	}
	m := allowRe.FindStringSubmatch(text)
	if m == nil {
		return nil, "", false
	}
	for _, n := range strings.Split(m[1], ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names, strings.TrimSpace(m[2]), true
}

// commentAllow parses one comment, in either comment syntax, with
// ParseAllow.
func commentAllow(c *ast.Comment) (names []string, reason string, ok bool) {
	text := strings.TrimPrefix(c.Text, "//")
	text = strings.TrimPrefix(text, "/*")
	return ParseAllow(strings.TrimSuffix(text, "*/"))
}

// allowDirective is one parsed directive naming the index's analyzer.
type allowDirective struct {
	reason string
	pos    token.Pos
	used   bool
}

// allowIndex holds the directives in a set of files that name one
// analyzer, keyed by the one line each claims.
type allowIndex struct {
	analyzer string
	lines    map[allowLine]*allowDirective
	all      []*allowDirective
}

type allowLine struct {
	file string
	line int
}

// newAllowIndex scans every comment in files for directives naming
// analyzer. readFile supplies the source, which tells a trailing
// directive from one alone on its line.
func newAllowIndex(fset *token.FileSet, files []*ast.File, analyzer string, readFile func(string) ([]byte, error)) *allowIndex {
	idx := &allowIndex{analyzer: analyzer, lines: make(map[allowLine]*allowDirective)}
	for _, f := range files {
		var src []byte
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, reason, ok := commentAllow(c)
				if !ok || !slices.Contains(names, analyzer) {
					continue
				}
				tf := fset.File(c.Pos())
				if src == nil {
					src, _ = readFile(tf.Name())
				}
				line := tf.Line(c.Pos())
				claimed := line + 1
				if start, end := tf.Offset(tf.LineStart(line)), tf.Offset(c.Pos()); end <= len(src) &&
					strings.TrimSpace(string(src[start:end])) != "" {
					claimed = line
				}
				d := &allowDirective{reason: reason, pos: c.Pos()}
				idx.lines[allowLine{tf.Name(), claimed}] = d
				idx.all = append(idx.all, d)
			}
		}
	}
	return idx
}

// filter decides one finding at p: it returns the message to report,
// annotated when the covering directive lacks a reason, or ok false
// when an audited directive suppresses it.
func (idx *allowIndex) filter(p token.Position, msg string) (string, bool) {
	d := idx.lines[allowLine{p.Filename, p.Line}]
	if d == nil {
		return msg, true
	}
	d.used = true
	if d.reason != "" {
		return "", false
	}
	return msg + " [an ironman:allow directive must carry a reason]", true
}

// unused returns the position of every directive that covered no
// finding, with the message that reports it.
func (idx *allowIndex) unused() (pos []token.Pos, msg string) {
	for _, d := range idx.all {
		if !d.used {
			pos = append(pos, d.pos)
		}
	}
	return pos, fmt.Sprintf("ironman:allow(%s) suppresses nothing; delete the directive", idx.analyzer)
}

// allowRun adapts an analyzer body that reports through an allow index:
// it builds the index over the pass's files, runs the body, then
// reports every directive naming the analyzer that suppressed nothing.
func allowRun(run func(*analysis.Pass, *allowIndex)) func(*analysis.Pass) (interface{}, error) {
	return func(pass *analysis.Pass) (interface{}, error) {
		idx := newAllowIndex(pass.Fset, pass.Files, pass.Analyzer.Name, pass.ReadFile)
		run(pass, idx)
		stale, msg := idx.unused()
		for _, pos := range stale {
			pass.Reportf(pos, "%s", msg)
		}
		return nil, nil
	}
}

// report emits a diagnostic unless an ironman:allow directive with a
// non-empty reason covers the position for this analyzer.
func report(pass *analysis.Pass, idx *allowIndex, pos token.Pos, msg string) {
	if msg, ok := idx.filter(pass.Fset.Position(pos), msg); ok {
		pass.Reportf(pos, "%s", msg)
	}
}

// isTestFile reports whether pos lies in a _test.go file; the checks
// cover protocol code, not tests.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.File(pos).Name(), "_test.go")
}
