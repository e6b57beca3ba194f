package webharmony

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the non-test declarations outside bench/ that no
// program reaches but that stay anyway. Each reason names a test that reads
// the declaration; TestReachability fails when an entry is reached again or
// no longer declared, so the list cannot go stale.
var reachAllowlist = map[string]string{
	"internal/appserver.Server.Stats":   "websim's TestPipelineFingerprintGolden pins the app servers' counters",
	"internal/db.Server.Stats":          "websim's TestPipelineFingerprintGolden pins the database servers' counters",
	"internal/harmony.Session.History":  "core's TestFigure5SpeculativeMatchesSequential compares every session's history record for record",
	"internal/monitor.Timeline.Points":  "core's TestFigure7TimelineRecorded reads the recorded utilization timeline",
	"internal/simnet.Engine.Pending":    "websim's TestPipelineFingerprintGolden pins the live event count after the drain",
	"internal/simnet.Engine.Run":        "TestPipelineFingerprintGolden and about 70 other test call sites in 12 packages drain an engine with it",
	"internal/simnet.Station.Completed": "websim's TestPipelineFingerprintGolden pins every station's completed-job count",
	"internal/tpcw.Driver.Stop":         "websim's TestPipelineFingerprintGolden and TestPoolChurnStress stop the browsers before draining in-flight pages",
}

// TestReachability fails on production code that only tests call. It
// type-checks both modules (this one and bench/) from source and walks what
// their programs reach, starting from every main of cmd/, examples/ and
// bench/cmd/webbench, every init function and package-level var
// initialiser, and every package-level name the webharmony facade exports.
// A call through an interface reaches the method of that name on every
// reached type that implements the interface; String, Error, MarshalJSON
// and UnmarshalJSON count as reached on every reached type, because the
// standard library calls them. Any other non-test declaration outside
// bench/ that is not reached must be in reachAllowlist.
func TestReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules from source; skipped in -short mode")
	}
	goTool := filepath.Join(os.Getenv("GOROOT"), "bin", "go")
	if _, err := exec.LookPath(goTool); err != nil {
		goTool = "go"
		if _, err := exec.LookPath(goTool); err != nil {
			t.Skipf("go tool not available: %v", err)
		}
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	listed, err := listPackages(goTool, root)
	if err != nil {
		t.Fatal(err)
	}
	benchListed, err := listPackages(goTool, filepath.Join(root, "bench"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadReachGraph(append(listed, benchListed...))
	if err != nil {
		t.Fatal(err)
	}
	g.walk()

	var unreached []string
	declared := map[string]bool{} // counted declaration name → reached
	for _, d := range g.decls {
		if !d.counted {
			continue
		}
		reached := g.reached[d.obj]
		declared[d.name] = declared[d.name] || reached
		if _, ok := reachAllowlist[d.name]; !reached && !ok {
			unreached = append(unreached, fmt.Sprintf("%s (%s)", d.name, g.fset.Position(d.obj.Pos())))
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("no program reaches %s: delete it, or allowlist it with the test that reads it", u)
	}

	testFuncs := g.testFuncNames()
	names := make([]string, 0, len(reachAllowlist))
	for name := range reachAllowlist {
		names = append(names, name)
	}
	sort.Strings(names)
	testName := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)\w*`)
	for _, name := range names {
		reached, ok := declared[name]
		switch {
		case !ok:
			t.Errorf("allowlisted %s is no longer declared: drop its entry", name)
		case reached:
			t.Errorf("allowlisted %s is reached by a program now: drop its entry", name)
		}
		reason := reachAllowlist[name]
		m := testName.FindString(reason)
		if m == "" || !testFuncs[m] {
			t.Errorf("allowlist reason for %s must name an existing test that reads it: %q", name, reason)
		}
	}
}

// listedPackage is the part of `go list -json` output the walk needs.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Name         string
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Module       *struct{ Path string }
}

// listPackages lists every package of the module in dir and all their
// dependencies, dependencies first, with export data for the standard
// library.
func listPackages(goTool, dir string) ([]listedPackage, error) {
	cmd := exec.Command(goTool, "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// reachDecl is one package-level declaration of a module package, or (with
// a nil obj) one root: an init function or a var initialiser.
type reachDecl struct {
	obj     types.Object
	name    string     // e.g. "internal/simnet.Station.Reset"
	nodes   []ast.Node // the syntax whose references the declaration reaches
	info    *types.Info
	counted bool // declared outside bench/, so the gate reports it
}

type reachGraph struct {
	fset     *token.FileSet
	decls    []*reachDecl
	byObj    map[types.Object]*reachDecl
	named    []*types.Named // module-declared types that can implement an interface
	reached  map[types.Object]bool
	queue    []*reachDecl         // reached, not yet scanned
	called   map[*types.Func]bool // interface methods called by reached code
	testDirs map[string][]string  // package dir → its test files
}

const reachModule = "webharmony"

// stdlibCalled lists the methods the standard library calls through its own
// interfaces (fmt.Stringer, error, json.Marshaler, json.Unmarshaler).
var stdlibCalled = map[string]bool{"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true}

func loadReachGraph(listed []listedPackage) (*reachGraph, error) {
	g := &reachGraph{
		fset:     token.NewFileSet(),
		byObj:    map[types.Object]*reachDecl{},
		reached:  map[types.Object]bool{},
		called:   map[*types.Func]bool{},
		testDirs: map[string][]string{},
	}
	exports := map[string]string{}
	var own []listedPackage
	seen := map[string]bool{}
	for _, p := range listed {
		if seen[p.ImportPath] {
			continue
		}
		seen[p.ImportPath] = true
		if p.Module == nil || !strings.HasPrefix(p.Module.Path, reachModule) {
			exports[p.ImportPath] = p.Export
			continue
		}
		own = append(own, p)
	}
	gc := importer.ForCompiler(g.fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})
	for _, p := range own {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(g.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, g.fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		counted := p.Module.Path == reachModule
		g.testDirs[p.Dir] = append(p.TestGoFiles, p.XTestGoFiles...)
		g.addPackage(p, pkg, files, info, counted)
	}
	return g, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// addPackage records the package's declarations and roots.
func (g *reachGraph) addPackage(p listedPackage, pkg *types.Package, files []*ast.File, info *types.Info, counted bool) {
	rel := strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, reachModule), "/")
	if rel == "" {
		rel = reachModule
	}
	facade := p.ImportPath == reachModule
	add := func(obj types.Object, name string, nodes ...ast.Node) {
		d := &reachDecl{obj: obj, name: rel + "." + name, nodes: nodes, info: info, counted: counted}
		g.decls = append(g.decls, d)
		g.byObj[obj] = d
		if facade && obj.Exported() && obj.Parent() == pkg.Scope() {
			g.mark(obj)
		}
	}
	root := func(n ast.Node) { g.queue = append(g.queue, &reachDecl{nodes: []ast.Node{n}, info: info}) }
	for _, f := range files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				obj := info.Defs[decl.Name].(*types.Func)
				name := decl.Name.Name
				if decl.Recv != nil {
					name = recvName(decl.Recv.List[0].Type) + "." + name
				}
				if decl.Recv == nil && name == "init" {
					root(decl)
					continue
				}
				add(obj, name, decl)
				if decl.Recv == nil && name == "main" && p.Name == "main" {
					g.mark(obj)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						obj := info.Defs[spec.Name]
						add(obj, spec.Name.Name, spec)
						// Generic types stay out of interface dispatch: a
						// method only they reach through an interface would
						// be reported, not silently kept.
						if n, ok := obj.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
							g.named = append(g.named, n)
						}
					case *ast.ValueSpec:
						if decl.Tok == token.VAR {
							for _, v := range spec.Values {
								root(v)
							}
						}
						for _, id := range spec.Names {
							if id.Name == "_" {
								continue
							}
							var nodes []ast.Node
							if spec.Type != nil {
								nodes = append(nodes, spec.Type)
							}
							if decl.Tok == token.CONST {
								for _, v := range spec.Values {
									nodes = append(nodes, v)
								}
							}
							add(info.Defs[id], id.Name, nodes...)
						}
					}
				}
			}
		}
	}
}

func recvName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}

// mark reaches obj (a module declaration; anything else is ignored).
func (g *reachGraph) mark(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	d := g.byObj[obj]
	if d == nil || g.reached[obj] {
		return
	}
	g.reached[obj] = true
	g.queue = append(g.queue, d)
}

// scan reaches everything node refers to and records interface calls.
func (g *reachGraph) scan(node ast.Node, info *types.Info) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				g.called[fn] = true
				return true
			}
		}
		if obj != nil {
			g.mark(obj)
		}
		return true
	})
}

// walk runs the reachability fixpoint: scan every root and reached
// declaration, then resolve the interface calls seen so far against every
// reached type, until nothing new is reached.
func (g *reachGraph) walk() {
	for {
		for len(g.queue) > 0 {
			d := g.queue[0]
			g.queue = g.queue[1:]
			for _, n := range d.nodes {
				g.scan(n, d.info)
			}
		}
		for _, n := range g.named {
			if !g.reached[n.Obj()] {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(n))
			for i := 0; i < ms.Len(); i++ {
				m := ms.At(i).Obj().(*types.Func)
				if stdlibCalled[m.Name()] || g.implementsCalled(n, m.Name()) {
					g.mark(m)
				}
			}
		}
		if len(g.queue) == 0 {
			return
		}
	}
}

// implementsCalled reports whether a called interface method of this name
// belongs to an interface that n (or *n) implements.
func (g *reachGraph) implementsCalled(n *types.Named, name string) bool {
	for fn := range g.called {
		if fn.Name() != name {
			continue
		}
		iface, ok := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		if types.Implements(n, iface) || types.Implements(types.NewPointer(n), iface) {
			return true
		}
	}
	return false
}

// testFuncNames collects the Test, Benchmark and Fuzz functions declared in
// the test files of every module package.
func (g *reachGraph) testFuncNames() map[string]bool {
	names := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	for dir, files := range g.testDirs {
		for _, f := range files {
			src, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				continue
			}
			for _, m := range decl.FindAllSubmatch(src, -1) {
				names[string(m[1])] = true
			}
		}
	}
	return names
}
