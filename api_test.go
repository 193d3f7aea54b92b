package elearncloud_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"elearncloud/internal/detlint"
)

// testOnlyAPI lists the exported functions and methods in internal/ that
// no program links but a test outside their package still needs, because
// the behaviour it checks has no other observer. Each key is
// "package.Func" or "package.Type.Method" and maps to the test that needs
// it. TestNoTestOnlyAPI fails when an entry is linked after all or no
// longer exists.
var testOnlyAPI = map[string]string{
	// The exact reference the histogram's bucketed quantiles are
	// checked against.
	"metrics.ExactQuantile": "TestHistogramQuantileBounds",
	// A rendered table's cells, read back by the tests of the tables
	// the experiments, the scorecard and the federation study build.
	"metrics.Table.Cell":    "TestTable1MeritsShape",
	"metrics.Table.NumRows": "TestRegistryCoversDesignIndex",
}

// TestNoTestOnlyAPI keeps test-only API out of internal/: it builds every
// program in the repository (the cmd/ tools, the examples and bench's
// elperf) with inlining off, reads the internal symbols each binary
// links, and fails on any exported function or method in internal/ that
// no binary links and testOnlyAPI does not list. String methods are
// exempt; a generic function counts as linked when any instantiation is.
// Skipped under -short: it shells out to the go toolchain.
//
// Linked is not called for a method. The linker keeps every method of a
// type converted to an interface whose name and signature match an
// interface method some binary calls, whether or not anything calls the
// method itself: elbench calls fs.DirEntry.Name, so an uncalled
// `Name() string` on such a type would read as linked. So each program
// is also linked with -dumpdep, which prints the edge that first kept
// each symbol, such as `type:*elearncloud/internal/cloud.Datacenter
// <UsedInIface> -> ...(*Datacenter).Name`. A method some binary first
// keeps through a <UsedInIface> edge must also have a call site in the
// non-test code of the module or of bench's elperf, read with go/types:
// a selector that resolves to the method itself, or to the method of an
// interface its type implements.
func TestNoTestOnlyAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every program with the go toolchain; skipped in -short mode")
	}
	bin := t.TempDir()
	dump := goTool(t, "build", "-gcflags=all=-l", "-ldflags=-dumpdep", "-o", bin+string(filepath.Separator), "./cmd/...", "./examples/...") +
		goTool(t, "build", "-C", "bench", "-gcflags=all=-l", "-ldflags=-dumpdep", "-o", filepath.Join(bin, "elperf"), "./elperf")

	linked := map[string]bool{}
	bins, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bins {
		for _, line := range strings.Split(goTool(t, "tool", "nm", filepath.Join(bin, b.Name())), "\n") {
			if key, ok := linkedKey(line); ok {
				linked[key] = true
			}
		}
	}
	if len(linked) == 0 {
		t.Fatal("no elearncloud/internal symbol found in any binary")
	}

	declared := exportedFuncs(t, "internal")
	for _, key := range slices.Sorted(maps.Keys(declared)) {
		if !linked[key] && testOnlyAPI[key] == "" {
			t.Errorf("%s is exported but no program links it: delete it, or list it in testOnlyAPI with the test that needs it", key)
		}
	}
	for _, key := range slices.Sorted(maps.Keys(testOnlyAPI)) {
		switch {
		case !declared[key]:
			t.Errorf("testOnlyAPI lists %s (for %s), which no longer exists", key, testOnlyAPI[key])
		case linked[key]:
			t.Errorf("testOnlyAPI lists %s (for %s), which a program links", key, testOnlyAPI[key])
		}
	}

	viaIface := map[string]bool{}
	for _, line := range strings.Split(dump, "\n") {
		if _, to, ok := strings.Cut(line, " <UsedInIface> -> "); ok {
			if key, ok := symbolKey(to); ok && declared[key] && strings.Count(key, ".") == 2 {
				viaIface[key] = true
			}
		}
	}
	if len(viaIface) == 0 {
		t.Fatal("no internal method reached through <UsedInIface> in any -dumpdep listing")
	}
	calls := newCallSites(t)
	for _, key := range slices.Sorted(maps.Keys(viaIface)) {
		if !calls.reach(key) {
			t.Errorf("%s is linked only because its type is converted to an interface, and no code calls it: delete it", key)
		}
	}
}

// goTool runs the go command from the repository root and returns its
// standard output and standard error (where the linker writes
// -dumpdep), failing the test on a non-zero exit.
func goTool(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// callSites is what the non-test code of the module and of bench's
// elperf selects: the keys (linkedKey's form) of the concrete methods
// it calls or takes as values, and, by method name, the method sets of
// the interfaces whose methods it calls.
type callSites struct {
	direct map[string]bool
	iface  map[string][]map[string]bool
	named  map[string]types.Type // internal type declarations, by "package.Type"
}

// newCallSites type-checks the module and bench's elperf with go/types
// and records every method selector they contain.
func newCallSites(t *testing.T) *callSites {
	t.Helper()
	c := &callSites{direct: map[string]bool{}, iface: map[string][]map[string]bool{}, named: map[string]types.Type{}}
	for _, load := range [][2]string{{".", "./..."}, {"bench", "./elperf"}} {
		pkgs, err := detlint.Load(load[0], []string{load[1]})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkgs {
			if pkg, ok := strings.CutPrefix(p.Path, "elearncloud/internal/"); ok {
				for _, name := range p.Pkg.Scope().Names() {
					if tn, ok := p.Pkg.Scope().Lookup(name).(*types.TypeName); ok {
						c.named[pkg+"."+name] = tn.Type()
					}
				}
			}
			for _, sel := range p.Info.Selections {
				fn, ok := sel.Obj().(*types.Func)
				if !ok {
					continue
				}
				recv := fn.Type().(*types.Signature).Recv().Type()
				if it, ok := recv.Underlying().(*types.Interface); ok {
					c.iface[fn.Name()] = append(c.iface[fn.Name()], methodSigs(it))
					continue
				}
				if ptr, ok := recv.(*types.Pointer); ok {
					recv = ptr.Elem()
				}
				if named, ok := recv.(*types.Named); ok && named.Obj().Pkg() != nil {
					if pkg, ok := strings.CutPrefix(named.Obj().Pkg().Path(), "elearncloud/internal/"); ok {
						c.direct[pkg+"."+named.Obj().Name()+"."+fn.Name()] = true
					}
				}
			}
		}
	}
	return c
}

// reach reports whether the method key ("package.Type.Method") has a
// call site: a selector resolving to it, or to the method of the same
// name of an interface whose whole method set the type's pointer
// method set holds.
func (c *callSites) reach(key string) bool {
	if c.direct[key] {
		return true
	}
	i := strings.LastIndexByte(key, '.')
	typ, ok := c.named[key[:i]]
	if !ok {
		return false
	}
	have := methodSigs(types.NewPointer(typ))
	for _, want := range c.iface[key[i+1:]] {
		implements := true
		for sig := range want {
			implements = implements && have[sig]
		}
		if implements {
			return true
		}
	}
	return false
}

// methodSigs returns t's method set as name-and-signature strings that
// name types by package path, so method sets read from different
// type-checked packages compare equal.
func methodSigs(t types.Type) map[string]bool {
	sigs := map[string]bool{}
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		fn := ms.At(i).Obj()
		sig := fn.Type().(*types.Signature)
		var b strings.Builder
		b.WriteString(fn.Name())
		for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
			b.WriteByte('(')
			for j := 0; j < tuple.Len(); j++ {
				b.WriteString(types.TypeString(tuple.At(j).Type(), nil) + ",")
			}
			b.WriteByte(')')
		}
		if sig.Variadic() {
			b.WriteString("...")
		}
		sigs[b.String()] = true
	}
	return sigs
}

// linkedKey maps one line of `go tool nm` output to the key of the
// internal function or method it names (see symbolKey).
func linkedKey(line string) (string, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 || fields[1] != "T" && fields[1] != "t" {
		return "", false
	}
	return symbolKey(strings.Join(fields[2:], " "))
}

// symbolKey maps a linker symbol to the key of the internal function or
// method it names, dropping receiver pointers and type arguments:
// "elearncloud/internal/sim.(*Engine).Run" becomes "sim.Engine.Run" and
// "….metrics.Merge[go.shape.int]" becomes "metrics.Merge". Closures and
// method values map to no key; their enclosing function has its own
// symbol.
func symbolKey(sym string) (string, bool) {
	sym, ok := strings.CutPrefix(sym, "elearncloud/internal/")
	if !ok {
		return "", false
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0 && r != '(' && r != ')' && r != '*':
			b.WriteRune(r)
		}
	}
	parts := strings.Split(b.String(), ".")
	if len(parts) < 2 || len(parts) > 3 || parts[1] == "" {
		return "", false
	}
	return strings.Join(parts, "."), true
}

// exportedFuncs parses every non-test Go file under root and returns the
// keys of its exported functions and methods other than String, in
// linkedKey's form with the package named by its path below internal/.
func exportedFuncs(t *testing.T, root string) map[string]bool {
	t.Helper()
	keys := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
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
		pkg := filepath.ToSlash(strings.TrimPrefix(filepath.Dir(path), root+string(filepath.Separator)))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || fn.Name.Name == "String" && fn.Recv != nil {
				continue
			}
			key := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				key = pkg + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			keys[key] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

// recvName returns the name of a receiver's type, without a pointer or
// type parameters.
func recvName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
