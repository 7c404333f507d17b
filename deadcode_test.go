package godpm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
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

// deadMethodAllowlist is deadAllowlist's rule for methods, one
// "import/path.Type.Method reason" per line, where the reason names the
// test or the ROADMAP item that keeps the method.
const deadMethodAllowlist = "testdata/deadcode_methods.txt"

// TestNoUnreferencedDeclarations lists the package-level funcs and types
// and the methods declared in non-test files under internal/ that no
// non-test file of the module or of bench/ references, and compares each
// list with its allowlist. A func or type counts as referenced by any
// identifier of that name elsewhere in its own package, or by a selector
// through an import of its package. A method counts as referenced by any
// selector of its name (a call, a method value or a method expression,
// through any type or interface), or when the standard library calls it
// through one of its own interfaces (implicitMethods). Both rules err
// towards calling code live.
func TestNoUnreferencedDeclarations(t *testing.T) {
	funcs, methods := unreferencedDecls(t, ".")
	checkDeadAllowlist(t, deadAllowlist, funcs, false)
	checkDeadAllowlist(t, deadMethodAllowlist, methods, true)
}

// checkDeadAllowlist fails for every name in got that the allowlist at
// path lacks and every allowlisted name that got lacks. With needReason,
// an entry must also say after its name why it stays.
func checkDeadAllowlist(t *testing.T, path string, got []string, needReason bool) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var allowed []string
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if needReason && len(fields) < 2 {
			t.Errorf("%s: %s must name the test or ROADMAP item that keeps it", path, fields[0])
		}
		allowed = append(allowed, fields[0])
	}
	for _, name := range got {
		if !slices.Contains(allowed, name) {
			t.Errorf("%s is declared under internal/ but only tests reference it: delete it or give it a caller", name)
		}
	}
	for _, name := range allowed {
		if !slices.Contains(got, name) {
			t.Errorf("%s is referenced or gone: remove it from %s", name, path)
		}
	}
}

// implicitMethods maps the method names that the standard library calls
// through its own interfaces (fmt.Stringer, error, json.Marshaler and
// json.Unmarshaler, http.Handler, http.RoundTripper, io.Reader, io.Writer,
// io.Closer, sort.Interface, heap.Interface) to the signature that
// satisfies the interface. Such a method counts as referenced without a
// selector; a method of the same name and another signature does not.
var implicitMethods = map[string]string{
	"String":        "() string",
	"Error":         "() string",
	"MarshalJSON":   "() ([]byte, error)",
	"UnmarshalJSON": "([]byte) error",
	"ServeHTTP":     "(http.ResponseWriter, *http.Request)",
	"RoundTrip":     "(*http.Request) (*http.Response, error)",
	"Read":          "([]byte) (int, error)",
	"Write":         "([]byte) (int, error)",
	"Close":         "() error",
	"Len":           "() int",
	"Less":          "(int, int) bool",
	"Swap":          "(int, int)",
	"Push":          "(any)",
	"Pop":           "() any",
}

// signature renders a func type without its parameter names, in the form
// implicitMethods uses.
func signature(ft *ast.FuncType) string {
	list := func(fl *ast.FieldList) []string {
		var out []string
		if fl == nil {
			return out
		}
		for _, f := range fl.List {
			for range max(1, len(f.Names)) {
				out = append(out, types.ExprString(f.Type))
			}
		}
		return out
	}
	sig := "(" + strings.Join(list(ft.Params), ", ") + ")"
	switch res := list(ft.Results); len(res) {
	case 0:
	case 1:
		sig += " " + res[0]
	default:
		sig += " (" + strings.Join(res, ", ") + ")"
	}
	return sig
}

// recvTypeName returns the name of a method receiver's base type.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// unreferencedDecls parses every non-test Go file below root (bench/
// included, testdata and hidden directories skipped) and returns the
// sorted unreferenced package-level funcs and types of internal/, then
// its sorted unreferenced methods as "import/path.Type.Method".
func unreferencedDecls(t *testing.T, root string) (funcs, methods []string) {
	t.Helper()
	const module = "godpm"
	fset := token.NewFileSet()
	type decl struct{ pkg, name string }
	var decls []decl
	type method struct{ pkg, recv, name, sig string }
	var meths []method
	// used[pkg][name]: referenced from pkg's own files or through an import.
	used := map[string]map[string]bool{}
	use := func(pkg, name string) {
		if used[pkg] == nil {
			used[pkg] = map[string]bool{}
		}
		used[pkg][name] = true
	}
	selected := map[string]bool{} // method names selected anywhere
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
		internal := strings.HasPrefix(pkg, module+"/internal/")
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
			// them (recursion, self-referencing types) do not count, nor
			// do selectors inside a method that spell its own name.
			var own []string
			self := ""
			switch d := d.(type) {
			case *ast.FuncDecl:
				switch {
				case d.Recv != nil:
					self = d.Name.Name
					if internal && len(d.Recv.List) == 1 {
						meths = append(meths, method{pkg, recvTypeName(d.Recv.List[0].Type), d.Name.Name, signature(d.Type)})
					}
				case d.Name.Name != "init" && d.Name.Name != "main":
					own = append(own, d.Name.Name)
					if internal {
						decls = append(decls, decl{pkg, d.Name.Name})
					}
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						own = append(own, ts.Name.Name)
						if internal {
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
					if n.Sel.Name != self {
						selected[n.Sel.Name] = true
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
	for _, d := range decls {
		if !used[d.pkg][d.name] {
			funcs = append(funcs, d.pkg+"."+d.name)
		}
	}
	for _, m := range meths {
		if !selected[m.name] && implicitMethods[m.name] != m.sig {
			methods = append(methods, m.pkg+"."+m.recv+"."+m.name)
		}
	}
	slices.Sort(funcs)
	slices.Sort(methods)
	return funcs, methods
}
