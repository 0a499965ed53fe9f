package lint

import (
	"go/ast"
	"go/token"
	"path"
	"regexp"
	"strconv"
	"strings"
)

// wrapScope lists the packages whose errors can cross into
// internal/serve's statusFor mapping. Inside them every fmt.Errorf
// that carries an error value must wrap it with %w: a %v or %s breaks
// the errors.Is/As chain and silently turns a mapped condition (429,
// 400, 503, 504) into a generic 500 — a shard outage wrapped with %v
// answers 500 instead of 503.
var wrapScope = map[string]bool{
	"masksearch":                true,
	"masksearch/internal/store": true,
	"masksearch/internal/serve": true,
	"masksearch/internal/dist":  true,
	"masksearch/cmd/msshard":    true,
}

const servePkgPath = "masksearch/internal/serve"

// errIdent matches exported sentinel names (ErrClosed,
// ErrShardUnavailable).
var errIdent = regexp.MustCompile(`^Err[A-Z]`)

// ErrWrapServe enforces the serving layer's error contract twice
// over: (a) in the packages feeding statusFor, fmt.Errorf calls that
// carry error values must use %w for each of them, and (b) every
// sentinel in statusFor's errors.Is table must be declared and
// actually produced somewhere in the loaded packages, and every
// errors.As target type must exist — a stale table entry is dead
// mapping code hiding a 500. Syntactic approximations: an error value
// is an identifier named err (or a short *err alias, or an
// Err-prefixed sentinel), and "produced" means referenced anywhere
// outside its declaration and the statusFor table itself.
var ErrWrapServe = &Analyzer{
	Name: "errwrapserve",
	Doc:  "errors crossing into serve must wrap a sentinel with %w, and every statusFor sentinel must be declared and produced",
	Run: func(p *Pass) {
		if wrapScope[p.Pkg.Path] {
			checkWraps(p)
		}
		if p.Pkg.Path == servePkgPath {
			checkStatusTable(p)
		}
	},
}

func checkWraps(p *Pass) {
	for _, f := range p.Pkg.Files {
		fmtName := importName(f, "fmt")
		if fmtName == "" {
			continue
		}
		ctxName := importName(f, "context")
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !pkgSelCall(call, fmtName, "Errorf") || len(call.Args) < 2 {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			format, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			wraps := strings.Count(format, "%w")
			var carried []string
			for _, arg := range call.Args[1:] {
				if name := errorishName(arg, ctxName); name != "" {
					carried = append(carried, name)
				}
			}
			if len(carried) > wraps {
				p.Reportf(call.Pos(),
					"fmt.Errorf carries %s but the format has %d %%w verb(s): wrap with %%w so errors.Is/As reach serve.statusFor",
					strings.Join(carried, ", "), wraps)
			}
			return true
		})
	}
}

// errorishName reports the display name of an argument that is
// recognizably an error value, "" otherwise.
func errorishName(e ast.Expr, ctxName string) string {
	switch v := e.(type) {
	case *ast.Ident:
		if isErrVarName(v.Name) || errIdent.MatchString(v.Name) {
			return v.Name
		}
	case *ast.SelectorExpr:
		id, ok := v.X.(*ast.Ident)
		if !ok {
			return ""
		}
		if errIdent.MatchString(v.Sel.Name) {
			return id.Name + "." + v.Sel.Name
		}
		if ctxName != "" && id.Name == ctxName &&
			(v.Sel.Name == "Canceled" || v.Sel.Name == "DeadlineExceeded") {
			return id.Name + "." + v.Sel.Name
		}
	}
	return ""
}

// isErrVarName matches err and its short aliases (cerr, ferr, werr)
// while avoiding longer words that merely end in "err" (stderr).
func isErrVarName(name string) bool {
	lower := strings.ToLower(name)
	return lower == "err" || (len(lower) <= 5 && strings.HasSuffix(lower, "err"))
}

func checkStatusTable(p *Pass) {
	tables := statusForBodies(p.Pkg)
	if len(tables) == 0 {
		return
	}
	for _, f := range p.Pkg.Files {
		errorsName := importName(f, "errors")
		if errorsName == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "statusFor" || fd.Body == nil {
				return true
			}
			ast.Inspect(fd.Body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok || len(call.Args) != 2 {
					return true
				}
				switch {
				case pkgSelCall(call, errorsName, "Is"):
					checkSentinel(p, f, call.Args[1], tables)
				case pkgSelCall(call, errorsName, "As"):
					checkAsTarget(p, f, fd, call.Args[1])
				}
				return true
			})
			return false
		})
	}
}

// statusForBodies returns the position ranges of every statusFor body
// in pkg; references inside them don't count as "producing" a
// sentinel.
func statusForBodies(pkg *Package) [][2]token.Pos {
	var spans [][2]token.Pos
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "statusFor" && fd.Body != nil {
				spans = append(spans, [2]token.Pos{fd.Body.Pos(), fd.Body.End()})
			}
		}
	}
	return spans
}

func checkSentinel(p *Pass, f *ast.File, target ast.Expr, tables [][2]token.Pos) {
	switch v := target.(type) {
	case *ast.Ident:
		declPos, ok := topLevelVar(p.Pkg, v.Name)
		if !ok {
			p.Reportf(v.Pos(), "sentinel %s is mapped in statusFor but not declared in this package", v.Name)
			return
		}
		if !produced(p.Module, v.Name, declPos, tables) {
			p.Reportf(v.Pos(), "sentinel %s is mapped in statusFor but never produced: no code outside the table references it", v.Name)
		}
	case *ast.SelectorExpr:
		alias, ok := v.X.(*ast.Ident)
		if !ok {
			return
		}
		depPath := importPathOf(f, alias.Name)
		if depPath == "" || depPath == "context" || depPath == "errors" {
			return
		}
		dep := findPackage(p.Module, depPath)
		if dep == nil {
			return // narrowed pattern list; cross-package check needs ./...
		}
		declPos, ok := topLevelVar(dep, v.Sel.Name)
		if !ok {
			p.Reportf(v.Pos(), "sentinel %s.%s is mapped in statusFor but not declared in %s", alias.Name, v.Sel.Name, depPath)
			return
		}
		if !produced(p.Module, v.Sel.Name, declPos, tables) {
			p.Reportf(v.Pos(), "sentinel %s.%s is mapped in statusFor but never produced: no code outside the table references it", alias.Name, v.Sel.Name)
		}
	}
}

// checkAsTarget verifies the &target of an errors.As call names a
// type that exists: it resolves the target variable's declared type
// inside fn and looks the type up in its package.
func checkAsTarget(p *Pass, f *ast.File, fn *ast.FuncDecl, target ast.Expr) {
	un, ok := target.(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return
	}
	id, ok := un.X.(*ast.Ident)
	if !ok {
		return
	}
	typ := declaredVarType(fn.Body, id.Name)
	if typ == nil {
		return
	}
	for {
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
			continue
		}
		break
	}
	switch v := typ.(type) {
	case *ast.Ident:
		if !topLevelType(p.Pkg, v.Name) {
			p.Reportf(target.Pos(), "errors.As target type %s is not declared in this package", v.Name)
		}
	case *ast.SelectorExpr:
		alias, ok := v.X.(*ast.Ident)
		if !ok {
			return
		}
		depPath := importPathOf(f, alias.Name)
		dep := findPackage(p.Module, depPath)
		if dep == nil {
			return
		}
		if !topLevelType(dep, v.Sel.Name) {
			p.Reportf(target.Pos(), "errors.As target type %s.%s is not declared in %s", alias.Name, v.Sel.Name, depPath)
		}
	}
}

// declaredVarType finds `var name <T>` inside body and returns T.
func declaredVarType(body *ast.BlockStmt, name string) ast.Expr {
	var typ ast.Expr
	ast.Inspect(body, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || vs.Type == nil {
			return true
		}
		for _, id := range vs.Names {
			if id.Name == name {
				typ = vs.Type
				return false
			}
		}
		return true
	})
	return typ
}

func findPackage(module []*Package, path string) *Package {
	for _, pkg := range module {
		if pkg.Path == path {
			return pkg
		}
	}
	return nil
}

// topLevelVar reports whether pkg declares a package-level variable
// name, returning the name identifier's position for exclusion from
// the produced-reference count.
func topLevelVar(pkg *Package, name string) (token.Pos, bool) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, id := range vs.Names {
					if id.Name == name {
						return id.Pos(), true
					}
				}
			}
		}
	}
	return token.NoPos, false
}

func topLevelType(pkg *Package, name string) bool {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == name {
					return true
				}
			}
		}
	}
	return false
}

// produced reports whether name is referenced anywhere in the module
// outside its declaring identifier and the statusFor bodies.
func produced(module []*Package, name string, declPos token.Pos, tables [][2]token.Pos) bool {
	for _, pkg := range module {
		for _, f := range pkg.Files {
			found := false
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || id.Name != name || id.Pos() == declPos {
					return !found
				}
				for _, span := range tables {
					if id.Pos() >= span[0] && id.Pos() < span[1] {
						return !found
					}
				}
				found = true
				return false
			})
			if found {
				return true
			}
		}
	}
	return false
}

// importPathOf resolves a file-local package identifier back to its
// import path ("" when the file holds no such import).
func importPathOf(f *ast.File, localName string) string {
	for _, im := range f.Imports {
		p, err := strconv.Unquote(im.Path.Value)
		if err != nil {
			continue
		}
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		if name == localName {
			return p
		}
	}
	return ""
}
