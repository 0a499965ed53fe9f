package lint

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture harness mirrors x/tools analysistest on the stdlib
// alone: each testdata/<analyzer> directory is parsed as one package
// under the import path the analyzer scopes on, the analyzer runs,
// and the surviving diagnostics are matched 1:1 against the
// fixtures' trailing `// want `regex`` comments. Files containing a
// well-formed msvet:ignore directive must additionally produce at
// least one raw (pre-suppression) finding — proving the directive
// silenced something real rather than the analyzer never firing.

var wantRe = regexp.MustCompile("want `([^`]*)`")

// fixturePkg parses every .go file of testdata/<name> as one package
// under pkgPath.
func fixturePkg(t *testing.T, fset *token.FileSet, name, pkgPath string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	pkg, err := ParsePackage(fset, pkgPath, files)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func collectWants(t *testing.T, fset *token.FileSet, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want pattern %q: %v", m[1], err)
				}
				pos := fset.Position(c.Pos())
				wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return wants
}

// suppressionFiles returns the fixture files holding a well-formed
// msvet:ignore directive.
func suppressionFiles(fset *token.FileSet, pkg *Package) map[string]bool {
	out := map[string]bool{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimLeft(c.Text, "/* "))
				if strings.HasPrefix(text, ignoreMarker) && len(strings.Fields(text)) >= 3 {
					out[fset.Position(c.Pos()).Filename] = true
				}
			}
		}
	}
	return out
}

// checkFixture runs one analyzer over testdata/<name> and verifies
// the diagnostics against the want comments and the suppression
// contract.
func checkFixture(t *testing.T, analyzer *Analyzer, name, pkgPath string) {
	t.Helper()
	fset := token.NewFileSet()
	pkg := fixturePkg(t, fset, name, pkgPath)
	wants := collectWants(t, fset, pkg)

	var raw []Diagnostic
	analyzer.Run(&Pass{Analyzer: analyzer, Fset: fset, Pkg: pkg, Module: []*Package{pkg}, diags: &raw})
	filtered := RunAnalyzers(fset, []*Package{pkg}, []*Analyzer{analyzer})

	for _, d := range filtered {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: %s", d.Pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("missing diagnostic at %s:%d matching %q", w.file, w.line, w.re)
		}
	}

	// Every file with a reasoned ignore must have had something to
	// suppress, or the fixture proves nothing.
	for file := range suppressionFiles(fset, pkg) {
		found := false
		for _, d := range raw {
			if d.Pos.Filename == file {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("suppression fixture %s produced no raw finding: the ignore directive silences nothing", file)
		}
	}
}

func TestMaskRelease(t *testing.T) {
	checkFixture(t, MaskRelease, "maskrelease", "masksearch/internal/fixture")
}

func TestFsyncRename(t *testing.T) {
	checkFixture(t, FsyncRename, "fsyncrename", "masksearch/internal/store")
}

func TestCtxLoop(t *testing.T) {
	checkFixture(t, CtxLoop, "ctxloop", "masksearch/internal/core")
}

func TestNoWallTime(t *testing.T) {
	checkFixture(t, NoWallTime, "nowalltime", "masksearch/internal/core")
}

func TestErrWrapServe(t *testing.T) {
	checkFixture(t, ErrWrapServe, "errwrapserve", "masksearch/internal/serve")
}

// TestFsyncRenameOutOfScope proves the analyzer scopes on the import
// path: the same raw calls in a non-persistence package are clean.
func TestFsyncRenameOutOfScope(t *testing.T) {
	fset := token.NewFileSet()
	pkg := fixturePkg(t, fset, "fsyncrename", "masksearch/internal/workload")
	diags := RunAnalyzers(fset, []*Package{pkg}, []*Analyzer{FsyncRename})
	for _, d := range diags {
		t.Errorf("unexpected diagnostic outside fsync scope at %s: %s", d.Pos, d.Message)
	}
}

// TestBareIgnoreReported verifies a directive without a reason is
// itself a finding, so suppressions stay auditable.
func TestBareIgnoreReported(t *testing.T) {
	fset := token.NewFileSet()
	pkg := fixturePkg(t, fset, "badignore", "masksearch/internal/fixture")
	diags := RunAnalyzers(fset, []*Package{pkg}, All())
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "msvet" {
		t.Errorf("diagnostic analyzer = %q, want the msvet pseudo-analyzer", d.Analyzer)
	}
	if !strings.Contains(d.Message, "needs an analyzer name and a reason") {
		t.Errorf("unexpected message: %s", d.Message)
	}
}
