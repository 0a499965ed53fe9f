package lint

import (
	"go/ast"
	"path/filepath"
)

// hotKernelFiles are the internal/core files holding the byte-domain
// kernels (SWAR ExactCP, RLE run walkers, CHI build, the filter and
// top-k inner loops). A wall-clock read in these files is either
// stats timing that belongs at the executor boundary or an accidental
// syscall in a loop that runs millions of times per query.
var hotKernelFiles = map[string]bool{
	"mask.go":   true,
	"rle.go":    true,
	"chi.go":    true,
	"filter.go": true,
	"topk.go":   true,
}

// NoWallTime flags time.Now and time.Since in the hot kernel files of
// internal/core. Timing measurements wrap kernel calls from the
// executor (exec.go, the bench harness, the serve layer) where one
// clock read brackets thousands of masks; inside a kernel the same
// read costs a vDSO call per pixel row, and the per-layer timings that
// bracket kernels assume they are pure compute.
var NoWallTime = &Analyzer{
	Name: "nowalltime",
	Doc:  "no wall-clock reads (time.Now/time.Since) inside the hot kernel files of internal/core",
	Run: func(p *Pass) {
		if p.Pkg.Path != "masksearch/internal/core" {
			return
		}
		for i, f := range p.Pkg.Files {
			if !hotKernelFiles[filepath.Base(p.Pkg.Filenames[i])] {
				continue
			}
			timeName := importName(f, "time")
			if timeName == "" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok || id.Name != timeName {
					return true
				}
				if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
					p.Reportf(sel.Pos(),
						"%s.%s in hot kernel file %s: wall-clock timing belongs at the executor boundary, not inside kernels",
						timeName, sel.Sel.Name, filepath.Base(p.Pkg.Filenames[i]))
				}
				return true
			})
		}
	},
}
