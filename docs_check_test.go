// Documentation checks, run by the CI docs job: Go examples embedded in
// the markdown pages must be gofmt-clean, every internal package must
// carry a godoc synopsis, and relative links in docs/ and the README —
// and markdown files named in Go comments — must resolve. They complement
// TestReadmeFlagSynopsis (cmd/boundedgd), which pins the README flag block
// to the daemon's actual flag set.
package boundedg

import (
	"go/doc"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docPages returns every markdown page the checks cover: README.md and
// docs/*.md.
func docPages(t *testing.T) []string {
	t.Helper()
	pages := []string{"README.md"}
	more, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	if len(more) == 0 {
		t.Fatal("no docs/*.md pages found")
	}
	return append(pages, more...)
}

var fenceRE = regexp.MustCompile("(?ms)^```([a-zA-Z0-9]*)\n(.*?)^```")

// TestDocsGoExamplesGofmt extracts every ```go fence from the doc pages
// and requires it to be a gofmt fixpoint (format.Source accepts whole
// files, declaration lists and statement lists alike).
func TestDocsGoExamplesGofmt(t *testing.T) {
	for _, page := range docPages(t) {
		src, err := os.ReadFile(page)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range fenceRE.FindAllStringSubmatch(string(src), -1) {
			if m[1] != "go" {
				continue
			}
			snippet := m[2]
			formatted, err := format.Source([]byte(snippet))
			if err != nil {
				t.Errorf("%s: go example %d does not parse: %v\n%s", page, i, err, snippet)
				continue
			}
			if got := string(formatted); strings.TrimRight(got, "\n") != strings.TrimRight(snippet, "\n") {
				t.Errorf("%s: go example %d is not gofmt-clean; want:\n%s", page, i, got)
			}
		}
	}
}

// TestInternalPackageSynopses requires every internal package to open
// with a godoc package comment whose synopsis is non-empty — the `go
// doc` smoke in CI checks the same thing through the toolchain.
func TestInternalPackageSynopses(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join("internal", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		synopsis := ""
		any := false
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			any = true
			af, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			if af.Doc != nil {
				synopsis = doc.Synopsis(af.Doc.Text())
			}
		}
		if any && synopsis == "" {
			t.Errorf("package %s has no godoc package comment", dir)
		}
	}
}

var linkRE = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestDocLinks resolves every markdown link in the doc pages: relative
// paths must name existing files or directories, and same-page #anchors
// must match a heading. External http(s) links are left to humans (the
// checker runs offline).
func TestDocLinks(t *testing.T) {
	for _, page := range docPages(t) {
		src, err := os.ReadFile(page)
		if err != nil {
			t.Fatal(err)
		}
		// Links inside fenced code blocks are examples, not references.
		text := fenceRE.ReplaceAllString(string(src), "")
		for _, m := range linkRE.FindAllStringSubmatch(text, -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			path, frag, _ := strings.Cut(target, "#")
			if path == "" {
				if !hasAnchor(string(src), frag) {
					t.Errorf("%s: anchor #%s matches no heading", page, frag)
				}
				continue
			}
			resolved := filepath.Join(filepath.Dir(page), path)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: link target %s does not exist (%s)", page, target, resolved)
			}
		}
	}
}

var mdNameRE = regexp.MustCompile(`\b[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b`)

// TestDocsGoCommentCitations resolves every markdown file a Go comment
// names, offline: the name must exist relative to the commenting file's
// directory or to the repository root. The bench/ module documents itself.
func TestDocsGoCommentCitations(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, name := range mdNameRE.FindAllString(cg.Text(), -1) {
				if !fileExists(filepath.Join(filepath.Dir(path), name)) && !fileExists(name) {
					t.Errorf("%s: comment cites %s, which does not exist", path, name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// hasAnchor reports whether a markdown heading slugs (GitHub-style) to
// frag.
func hasAnchor(src, frag string) bool {
	for _, line := range strings.Split(src, "\n") {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		h := strings.TrimSpace(strings.TrimLeft(line, "#"))
		var slug strings.Builder
		for _, r := range strings.ToLower(h) {
			switch {
			case r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-':
				slug.WriteRune(r)
			case r == ' ':
				slug.WriteByte('-')
			}
		}
		if slug.String() == frag {
			return true
		}
	}
	return false
}
