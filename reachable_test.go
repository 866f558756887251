package clara

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachableAllow lists the exported names under internal/ that no non-test
// file references, each with the reason it stays. Keys are "pkg.Name" for
// package-level names and "pkg.Type.Method" for methods, pkg being the
// directory under internal/.
var reachableAllow = map[string]string{
	"cir.NewInterp":                "reference interpreter the compiled engine is tested against",
	"nf.Spec.MustCompile":          "compiles library NFs in the tests of several packages",
	"nf.Names":                     "lists the library NFs for the corpus tests of several packages",
	"mapper.Encode":                "ilp's TestMapperModelsMatchDense solves the mapper's models against the dense reference",
	"benchguard.Enforce":           "the benchmark regression guard the tests of several packages share",
	"budget.CanceledError.Unwrap":  "errors.Is and errors.As call it through an interface",
	"budget.TransientError.Unwrap": "errors.Is and errors.As call it through an interface",
	"workload.IngestError.Unwrap":  "errors.Is and errors.As call it through an interface",
}

// TestOnlyReachableCode fails for every exported func, type, var, const and
// method declared in a non-test file under internal/ that no non-test file
// of the module or of perfbench references, unless reachableAllow names it.
// It also fails for an allowlisted name that is no longer declared or that
// a non-test file now references.
//
// Names resolve conservatively, so the test may miss dead code but never
// flags live code: a pkg.Name selector resolves through the file's
// imports, a bare identifier counts inside its own package, and any .Name
// selector anywhere counts for every method called Name.
func TestOnlyReachableCode(t *testing.T) {
	decls, refs := scanReachability(t, ".")
	var dead []string
	for key, pos := range decls {
		if !refs.has(key) {
			if _, ok := reachableAllow[key]; !ok {
				dead = append(dead, key+" ("+pos+")")
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no non-test caller reaches %s: delete it, move it into the tests that use it, or allowlist it with a reason", d)
	}
	for key := range reachableAllow {
		if _, ok := decls[key]; !ok {
			t.Errorf("allowlisted %s is not declared under internal/: drop it from reachableAllow", key)
		} else if refs.has(key) {
			t.Errorf("allowlisted %s has a non-test caller: drop it from reachableAllow", key)
		}
	}
}

// reachRefs holds what non-test files reference: package-level names by
// "pkg.Name" key and method names by bare name.
type reachRefs struct {
	names   map[string]bool
	methods map[string]bool
}

func (r reachRefs) has(key string) bool {
	if i := strings.IndexByte(key, '.'); strings.Contains(key[i+1:], ".") {
		return r.methods[key[strings.LastIndexByte(key, '.')+1:]]
	}
	return r.names[key]
}

// scanReachability parses every non-test Go file below root, skipping
// testdata and hidden directories, and returns the exported declarations
// under internal/ (key → file:line) and the references of all of them.
func scanReachability(t *testing.T, root string) (map[string]string, reachRefs) {
	t.Helper()
	fset := token.NewFileSet()
	type file struct {
		dir string // slash-separated, relative to root
		f   *ast.File
	}
	var files []file
	pkgName := map[string]string{} // import path → package name
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		dir = filepath.ToSlash(dir)
		files = append(files, file{dir, f})
		pkgName[importPath(dir)] = f.Name.Name
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	decls := map[string]string{}
	refs := reachRefs{names: map[string]bool{}, methods: map[string]bool{}}
	for _, fl := range files {
		pkg, internal := strings.CutPrefix(fl.dir, "internal/")
		if internal {
			collectDecls(fset, fl.f, pkg, decls)
		}
		imports := map[string]string{} // local name → key prefix
		for _, is := range fl.f.Imports {
			path, _ := strconv.Unquote(is.Path.Value)
			rel, ok := strings.CutPrefix(path, "clara/internal/")
			if !ok {
				continue
			}
			local := pkgName[path]
			if is.Name != nil {
				local = is.Name.Name
			}
			imports[local] = rel
		}
		skip := declIdents(fl.f)
		ast.Inspect(fl.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				refs.methods[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if imported, ok := imports[x.Name]; ok {
						refs.names[imported+"."+n.Sel.Name] = true
					}
				}
			case *ast.Ident:
				if internal && !skip[n] {
					refs.names[pkg+"."+n.Name] = true
				}
			}
			return true
		})
	}
	return decls, refs
}

// importPath returns the import path of the package in dir.
func importPath(dir string) string {
	if dir == "." {
		return "clara"
	}
	return "clara/" + dir
}

// collectDecls adds f's exported package-level names and exported methods
// to decls, keyed as reachableAllow is.
func collectDecls(fset *token.FileSet, f *ast.File, pkg string, decls map[string]string) {
	add := func(key string, pos token.Pos) {
		p := fset.Position(pos)
		decls[key] = filepath.ToSlash(p.Filename) + ":" + strconv.Itoa(p.Line)
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				add(pkg+"."+d.Name.Name, d.Pos())
			} else {
				add(pkg+"."+recvType(d.Recv.List[0].Type)+"."+d.Name.Name, d.Pos())
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						add(pkg+"."+s.Name.Name, s.Pos())
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							add(pkg+"."+n.Name, n.Pos())
						}
					}
				}
			}
		}
	}
}

// recvType returns the name of a method's receiver type, without its
// pointer or type parameters.
func recvType(e ast.Expr) string {
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
			return "?"
		}
	}
}

// declIdents returns the identifiers of f that declare a package-level
// name or name a method's receiver type: a declaration, or a method of the
// type, is not a use of the name.
func declIdents(f *ast.File) map[*ast.Ident]bool {
	skip := map[*ast.Ident]bool{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			skip[d.Name] = true
			if d.Recv != nil {
				ast.Inspect(d.Recv.List[0].Type, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						skip[id] = true
					}
					return true
				})
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					skip[s.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						skip[n] = true
					}
				}
			}
		}
	}
	return skip
}
