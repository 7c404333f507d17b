package godpm_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
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
// through an import of its package. Methods are judged on the
// type-checked code (go/types): a method counts as referenced when a
// selector (a call, a method value or a method expression) outside the
// method itself selects it on its own type, or selects the method of an
// interface its type satisfies, or when the standard library calls it
// through one of its own interfaces (implicitMethods).
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
	// methodDecls are the methods declared under internal/.
	var methodDecls []*ast.FuncDecl
	methodPkg := map[*ast.FuncDecl]string{}
	// used[pkg][name]: referenced from pkg's own files or through an import.
	used := map[string]map[string]bool{}
	use := func(pkg, name string) {
		if used[pkg] == nil {
			used[pkg] = map[string]bool{}
		}
		used[pkg][name] = true
	}
	files := map[string][]*ast.File{} // import path → non-test files
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
		files[pkg] = append(files[pkg], f)
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
			// them (recursion, self-referencing types) do not count.
			var own []string
			switch d := d.(type) {
			case *ast.FuncDecl:
				switch {
				case d.Recv != nil:
					if internal && len(d.Recv.List) == 1 {
						methodDecls = append(methodDecls, d)
						methodPkg[d] = pkg
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
	slices.Sort(funcs)

	info := typeCheck(t, fset, files)
	// Every method selection outside the selected method itself: concrete
	// methods are referenced directly, interface methods through every
	// type that satisfies their interface.
	referenced := map[*types.Func]bool{}
	var viaIface []*types.Func
	for _, fs := range files {
		for _, f := range fs {
			for _, d := range f.Decls {
				var self *types.Func
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					self, _ = info.Defs[fd.Name].(*types.Func)
				}
				ast.Inspect(d, func(n ast.Node) bool {
					sx, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					sel := info.Selections[sx]
					if sel == nil || sel.Kind() == types.FieldVal {
						return true
					}
					fn := sel.Obj().(*types.Func).Origin()
					switch {
					case fn == self:
					case types.IsInterface(fn.Type().(*types.Signature).Recv().Type()):
						viaIface = append(viaIface, fn)
					default:
						referenced[fn] = true
					}
					return true
				})
			}
		}
	}
	for _, d := range methodDecls {
		fn, _ := info.Defs[d.Name].(*types.Func)
		if fn == nil {
			t.Fatalf("%s.%s was not type-checked", methodPkg[d], d.Name.Name)
		}
		if referenced[fn] || implicitMethods[d.Name.Name] == signature(d.Type) || satisfiesSelected(fn, viaIface) {
			continue
		}
		methods = append(methods, methodPkg[d]+"."+recvTypeName(d.Recv.List[0].Type)+"."+d.Name.Name)
	}
	slices.Sort(methods)
	return funcs, methods
}

// satisfiesSelected reports whether fn's receiver type, or a pointer to
// it, satisfies the interface of a selected interface method of fn's
// name. A generic receiver satisfies an interface whose method names its
// method set all has.
func satisfiesSelected(fn *types.Func, selected []*types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	ptr := types.NewPointer(named)
	for _, im := range selected {
		if im.Name() != fn.Name() {
			continue
		}
		iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if named.TypeParams().Len() == 0 {
			if types.Implements(named, iface) || types.Implements(ptr, iface) {
				return true
			}
			continue
		}
		mset := types.NewMethodSet(ptr)
		all := true
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			if mset.Lookup(m.Pkg(), m.Name()) == nil {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// typeCheck type-checks the parsed packages, keyed by import path, from
// source, importing the standard library through go/importer, and
// returns the definitions and selections of them all.
func typeCheck(t *testing.T, fset *token.FileSet, files map[string][]*ast.File) *types.Info {
	t.Helper()
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	im := &sourceImporter{fset: fset, files: files, info: info, std: importer.Default(), done: map[string]*types.Package{}}
	for _, path := range slices.Sorted(maps.Keys(files)) {
		if _, err := im.Import(path); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
	}
	return info
}

// sourceImporter type-checks the module's own packages from their parsed
// files, each once, and imports everything else from std.
type sourceImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	info  *types.Info
	std   types.Importer
	done  map[string]*types.Package
}

func (im *sourceImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.done[path]; ok {
		return p, nil
	}
	fs, ok := im.files[path]
	if !ok {
		return im.std.Import(path)
	}
	conf := types.Config{Importer: im}
	p, err := conf.Check(path, im.fset, fs, im.info)
	im.done[path] = p
	return p, err
}
