package clara

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// reachableAllow lists the exported names of the root package and of
// internal/ that no binary reaches, each with the reason it stays. Keys are
// "pkg.Name" for package-level names and "pkg.Type.Method" for methods, pkg
// being "clara" for the root package and the directory under internal/
// otherwise.
var reachableAllow = map[string]string{
	"cir.NewInterp":                "reference interpreter the compiled engine is tested against",
	"cir.Interp.Run":               "runs the reference interpreter in the compiled engine's differential tests of several packages",
	"nf.Spec.MustCompile":          "compiles library NFs in the tests of several packages",
	"nf.Names":                     "lists the library NFs for the corpus tests of several packages",
	"mapper.Encode":                "ilp's TestMapperModelsMatchDense solves the mapper's models against the dense reference",
	"benchguard.Enforce":           "the benchmark regression guard the tests of several packages share",
	"nicsim.acAutomaton.Scan":      "the match-count oracle the DPI scan tests compare the line-run walk against",
	"budget.CanceledError.Unwrap":  "errors.Is and errors.As call it through an interface",
	"budget.TransientError.Unwrap": "errors.Is and errors.As call it through an interface",
	"budget.ExceededError.Is":      "errors.Is calls it through an anonymous interface",
	"workload.IngestError.Unwrap":  "errors.Is and errors.As call it through an interface",

	// The CLIs use internal/budget and internal/obs directly; these aliases
	// and functions are the only public route to budgets and metrics.
	"clara.Budget":              publicBudgetRoute,
	"clara.ErrBudgetExceeded":   publicBudgetRoute,
	"clara.BudgetExceededError": publicBudgetRoute,
	"clara.CanceledError":       publicBudgetRoute,
	"clara.PanicError":          publicBudgetRoute,
	"clara.BudgetUsage":         publicBudgetRoute,
	"clara.Metrics":             publicBudgetRoute,
	"clara.WithBudget":          publicBudgetRoute,
	"clara.ParseBudget":         publicBudgetRoute,
	"clara.NewMetrics":          publicBudgetRoute,
	"clara.WithMetrics":         publicBudgetRoute,
	"clara.MetricsFrom":         publicBudgetRoute,
	"clara.WithBudgetUsage":     publicBudgetRoute,
}

const publicBudgetRoute = "the public route to analysis budgets and metrics (DESIGN.md \"Robustness\"); the CLIs use the internal packages directly"

// TestOnlyReachableCode fails for every exported func, type, var, const and
// method of the root package and of internal/ that no declaration in cmd/,
// examples/ or perfbench/ reaches, unless reachableAllow names it. It also
// fails for an allowlisted name that is no longer declared or that the
// binaries reach without the allowance, and for a call of a Deprecated
// shim from outside perfbench/, the one module the shims are kept for.
func TestOnlyReachableCode(t *testing.T) {
	start := time.Now()
	g := loadReachGraph(t, ".")
	t.Logf("type-checked and scanned the module in %v", time.Since(start))
	for _, d := range g.dead(reachableAllow) {
		t.Errorf("no binary reaches %s: delete it, move it into the tests that use it, or allowlist it with a reason", d)
	}
	reached := g.live(nil)
	for key := range reachableAllow {
		obj, ok := g.byKey[key]
		if !ok {
			t.Errorf("allowlisted %s is not declared in the root package or under internal/: drop it from reachableAllow", key)
		} else if reached[obj] {
			t.Errorf("allowlisted %s is reached from the binaries: drop it from reachableAllow", key)
		}
	}
	for user, used := range g.uses {
		if g.home[user] == "perfbench" {
			continue
		}
		for _, obj := range used {
			if g.deprecated[obj] {
				t.Errorf("%s (%s) calls the deprecated %s: call its survivor", user.Name(), g.home[user], obj.Name())
			}
		}
	}
}

// TestReachabilityScanner runs the scanner on a fixture module holding a
// wrapper chain only a test calls, a dead method that shares its name with
// a live one, and String, Error and interface methods reached only through
// their interfaces: the first two are dead, the rest live.
func TestReachabilityScanner(t *testing.T) {
	g := loadReachGraph(t, filepath.Join("testdata", "reachable"))
	got := g.dead(nil)
	for i, d := range got {
		got[i] = d[:strings.IndexByte(d, ' ')]
	}
	want := []string{"fixture.Wrap", "fixture.WrapContext", "lib.Dead.Name"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("dead names = %v, want %v", got, want)
	}
}

// reachGraph is a module's declarations and the uses between them, resolved
// by go/types.
type reachGraph struct {
	// byKey holds the reported declarations: the exported names of the root
	// package and of internal/, keyed as reachableAllow is.
	byKey map[string]types.Object
	pos   map[types.Object]string
	// uses maps each package-level name and method of the module to the
	// module's names and methods its declaration uses.
	uses  map[types.Object][]types.Object
	roots []types.Object
	// home is the directory of each declaration; deprecated holds the
	// functions and methods whose doc comment has a Deprecated paragraph.
	home       map[types.Object]string
	deprecated map[types.Object]bool
	// ifaces are error, fmt.Stringer and the module's interfaces: a method
	// of a reached type that implements one of them counts as reached.
	ifaces []*types.Interface
}

// loadReachGraph type-checks every non-test package below root, skipping
// testdata and hidden directories, and builds its reachability graph. The
// standard library comes from importer.Default.
func loadReachGraph(t *testing.T, root string) *reachGraph {
	t.Helper()
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	module, ok := strings.CutPrefix(strings.SplitN(string(gomod), "\n", 2)[0], "module ")
	if !ok {
		t.Fatalf("%s/go.mod does not open with its module line", root)
	}
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path → files
	dirs := map[string]string{}       // import path → slash-separated directory
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		dir = filepath.ToSlash(dir)
		ip := module
		if dir != "." {
			ip += "/" + dir
		}
		files[ip] = append(files[ip], f)
		dirs[ip] = dir
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	imp := &moduleImporter{fset: fset, files: files, info: info, std: importer.Default(), pkgs: map[string]*types.Package{}}
	paths := make([]string, 0, len(files))
	for ip := range files {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := imp.Import(ip); err != nil {
			t.Fatal(err)
		}
	}
	fmtPkg, err := imp.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}

	g := &reachGraph{
		byKey:      map[string]types.Object{},
		pos:        map[types.Object]string{},
		uses:       map[types.Object][]types.Object{},
		home:       map[types.Object]string{},
		deprecated: map[types.Object]bool{},
		ifaces: []*types.Interface{
			types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
			fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface),
		},
	}
	// inModule reports whether obj is a package-level name or a method
	// declared in the module, the nodes of the graph.
	inModule := func(obj types.Object) bool {
		if obj.Pkg() == nil || imp.pkgs[obj.Pkg().Path()] == nil {
			return false
		}
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			_, iface := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			return !iface
		}
		return obj.Parent() == obj.Pkg().Scope()
	}
	usesIn := func(n ast.Node) []types.Object {
		var out []types.Object
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				obj := info.Uses[id]
				if fn, ok := obj.(*types.Func); ok {
					obj = fn.Origin() // a method of a generic type's instance
				}
				if obj != nil && inModule(obj) {
					out = append(out, obj)
				}
			}
			return true
		})
		return out
	}

	for _, ip := range paths {
		dir := dirs[ip]
		label, reported := strings.CutPrefix(dir, "internal/")
		if dir == "." {
			label, reported = imp.pkgs[ip].Name(), true
		}
		binary := dir == "perfbench" || strings.HasPrefix(dir, "perfbench/") ||
			strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "examples/")
		declare := func(obj types.Object, key string, n ast.Node) {
			g.uses[obj] = append(g.uses[obj], usesIn(n)...)
			g.home[obj] = dir
			if binary {
				g.roots = append(g.roots, obj)
			}
			if reported && obj.Exported() {
				g.byKey[label+"."+key] = obj
				p := fset.Position(obj.Pos())
				g.pos[obj] = filepath.ToSlash(p.Filename) + ":" + strconv.Itoa(p.Line)
			}
		}
		for _, f := range files[ip] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						g.roots = append(g.roots, usesIn(d)...)
						continue
					}
					fn := info.Defs[d.Name].(*types.Func)
					key := fn.Name()
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						key = recvName(recv.Type()) + "." + key
					}
					declare(fn, key, d)
					if d.Doc != nil && strings.Contains("\n"+d.Doc.Text(), "\nDeprecated: ") {
						g.deprecated[fn] = true
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							obj := info.Defs[s.Name]
							declare(obj, obj.Name(), s)
							if it, ok := obj.Type().Underlying().(*types.Interface); ok {
								g.ifaces = append(g.ifaces, it)
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if obj := info.Defs[n]; obj != nil {
									declare(obj, obj.Name(), s)
								}
							}
							if d.Tok == token.VAR {
								for _, v := range s.Values {
									g.roots = append(g.roots, usesIn(v)...)
								}
							}
						}
					}
				}
			}
		}
	}
	return g
}

// recvName is the name of a method's receiver type, without its pointer.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name()
}

// live returns every declaration the roots reach, the allowlisted names
// counting as roots too: a declaration is reached when a reached one uses
// it, and a method of a reached named type is reached when it implements a
// method of one of g.ifaces.
func (g *reachGraph) live(allow map[string]string) map[types.Object]bool {
	seen := map[types.Object]bool{}
	work := append([]types.Object(nil), g.roots...)
	for key := range allow {
		if obj, ok := g.byKey[key]; ok {
			work = append(work, obj)
		}
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[obj] {
			continue
		}
		seen[obj] = true
		work = append(work, g.uses[obj]...)
		if tn, ok := obj.(*types.TypeName); ok {
			work = append(work, g.interfaceMethods(tn)...)
		}
	}
	return seen
}

// interfaceMethods returns the methods, promoted ones included, through
// which tn's values satisfy any of g.ifaces.
func (g *reachGraph) interfaceMethods(tn *types.TypeName) []types.Object {
	if _, ok := tn.Type().Underlying().(*types.Interface); ok || tn.IsAlias() {
		return nil
	}
	ptr := types.NewPointer(tn.Type())
	mset := types.NewMethodSet(ptr)
	var out []types.Object
	for _, it := range g.ifaces {
		if !types.Implements(ptr, it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			if sel := mset.Lookup(it.Method(i).Pkg(), it.Method(i).Name()); sel != nil {
				out = append(out, sel.Obj().(*types.Func).Origin())
			}
		}
	}
	return out
}

// dead returns the reported declarations, as "key (file:line)", that
// neither the roots nor the allowlisted names reach.
func (g *reachGraph) dead(allow map[string]string) []string {
	reached := g.live(allow)
	var out []string
	for key, obj := range g.byKey {
		if _, ok := allow[key]; !ok && !reached[obj] {
			out = append(out, key+" ("+g.pos[obj]+")")
		}
	}
	sort.Strings(out)
	return out
}

// moduleImporter type-checks the module's packages from source on first
// import and hands every other import to the standard importer.
type moduleImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	info  *types.Info
	std   types.Importer
	pkgs  map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p, nil
}
