package godpm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// deadAllowlist holds the package-level declarations under internal/ that
// no non-test file references yet, one "import/path.Name" per line. It may
// only shrink: new code must have a caller outside tests, and an entry
// whose declaration gained a caller or was deleted must be removed.
const deadAllowlist = "testdata/deadcode_allowlist.txt"

// TestNoUnreferencedDeclarations lists the package-level funcs and types
// declared in non-test files under internal/ that no non-test file of the
// module or of bench/ references, and compares the list with the
// allowlist. Methods are left out: an unreferenced-looking method may
// satisfy an interface. A name counts as referenced by any identifier of
// that name elsewhere in its own package, or by a selector through an
// import of its package, so the check errs towards calling code live.
func TestNoUnreferencedDeclarations(t *testing.T) {
	got := unreferencedDecls(t, ".")
	raw, err := os.ReadFile(deadAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	var allowed []string
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			allowed = append(allowed, line)
		}
	}
	for _, name := range got {
		if !slices.Contains(allowed, name) {
			t.Errorf("%s is declared under internal/ but only tests reference it: delete it or give it a caller", name)
		}
	}
	for _, name := range allowed {
		if !slices.Contains(got, name) {
			t.Errorf("%s is referenced or gone: remove it from %s", name, deadAllowlist)
		}
	}
}

// unreferencedDecls parses every non-test Go file below root (bench/
// included, testdata and hidden directories skipped) and returns the
// sorted unreferenced package-level funcs and types of internal/.
func unreferencedDecls(t *testing.T, root string) []string {
	t.Helper()
	const module = "godpm"
	fset := token.NewFileSet()
	type decl struct{ pkg, name string }
	var decls []decl
	// used[pkg][name]: referenced from pkg's own files or through an import.
	used := map[string]map[string]bool{}
	use := func(pkg, name string) {
		if used[pkg] == nil {
			used[pkg] = map[string]bool{}
		}
		used[pkg][name] = true
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		imports := map[string]string{} // local name → import path
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if !strings.HasPrefix(p, module+"/internal/") {
				continue
			}
			local := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = p
		}
		for _, d := range f.Decls {
			// The names d declares; identifiers inside d that spell one of
			// them (recursion, self-referencing types) do not count.
			var own []string
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.Name != "init" && d.Name.Name != "main" {
					own = append(own, d.Name.Name)
					if strings.HasPrefix(pkg, module+"/internal/") {
						decls = append(decls, decl{pkg, d.Name.Name})
					}
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						own = append(own, ts.Name.Name)
						if strings.HasPrefix(pkg, module+"/internal/") {
							decls = append(decls, decl{pkg, ts.Name.Name})
						}
					}
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if p, ok := imports[x.Name]; ok {
							use(p, n.Sel.Name)
							return false
						}
					}
				case *ast.Ident:
					if !slices.Contains(own, n.Name) {
						use(pkg, n.Name)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, d := range decls {
		if !used[d.pkg][d.name] {
			dead = append(dead, d.pkg+"."+d.name)
		}
	}
	slices.Sort(dead)
	return dead
}
