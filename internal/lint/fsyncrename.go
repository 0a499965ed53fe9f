package lint

import (
	"go/ast"
)

// fsyncScope lists the packages that own persistent artifacts
// (manifest.json, catalog.bin, chi.idx, WAL segments, masks.*). In
// these packages every file publish must go through the store.FS
// abstraction — writeFileSync / writeJSONSync / AtomicWriteFile — so
// the write-fsync-rename-dirsync discipline is applied in exactly one
// place and the fault injector sees every mutation. The un-fsynced
// rename bug shipped twice (PR 4's chi.gob rename, PR 7's WAL
// repairs) before this gate existed.
var fsyncScope = map[string]bool{
	"masksearch":                true,
	"masksearch/internal/store": true,
}

// rawWriteFuncs maps each raw os mutation that can publish or create
// a persistent artifact to the FS-path replacement the finding
// suggests.
var rawWriteFuncs = map[string]string{
	"Rename":     "FS.Rename via writeFileSync or store.AtomicWriteFile",
	"Create":     "FS.Create",
	"CreateTemp": "store.AtomicWriteFile",
	"WriteFile":  "writeJSONSync or store.AtomicWriteFile",
	"OpenFile":   "FS.Create",
}

// FsyncRename flags raw os-level file creation and renames in the
// packages that own persistent artifacts. DESIGN.md invariant 10
// (acknowledged ⇒ durable) only holds when every publish follows the
// write-fsync-rename-dirsync discipline of the FS abstraction; a raw
// os.Rename is exactly the bug class fixed in PR 4 and again in PR 7.
// The FS production implementation itself and the deliberately
// non-crash-safe bulk generator carry reasoned msvet:ignore comments.
var FsyncRename = &Analyzer{
	Name: "fsyncrename",
	Doc:  "persistent artifacts must be published through the FS atomic-rename/fsync path, never raw os calls",
	Run: func(p *Pass) {
		if !fsyncScope[p.Pkg.Path] {
			return
		}
		for _, f := range p.Pkg.Files {
			osName := importName(f, "os")
			if osName == "" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				for fn, repl := range rawWriteFuncs {
					if pkgSelCall(call, osName, fn) {
						p.Reportf(call.Pos(),
							"raw os.%s bypasses the write-fsync-rename-dirsync discipline; use %s (or suppress with a reasoned msvet:ignore)",
							fn, repl)
					}
				}
				return true
			})
		}
	},
}
