package elearncloud_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
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
func TestNoTestOnlyAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every program with the go toolchain; skipped in -short mode")
	}
	bin := t.TempDir()
	goTool(t, "build", "-gcflags=all=-l", "-o", bin+string(filepath.Separator), "./cmd/...", "./examples/...")
	goTool(t, "build", "-C", "bench", "-gcflags=all=-l", "-o", filepath.Join(bin, "elperf"), "./elperf")

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
}

// goTool runs the go command from the repository root and returns its
// standard output, failing the test on a non-zero exit.
func goTool(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out)
}

// linkedKey maps one line of `go tool nm` output to the key of the
// internal function or method it names, dropping receiver pointers and
// type arguments: "elearncloud/internal/sim.(*Engine).Run" becomes
// "sim.Engine.Run" and "….metrics.Merge[go.shape.int]" becomes
// "metrics.Merge". Closures and method values map to no key; their
// enclosing function has its own symbol.
func linkedKey(line string) (string, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 || fields[1] != "T" && fields[1] != "t" {
		return "", false
	}
	sym, ok := strings.CutPrefix(strings.Join(fields[2:], " "), "elearncloud/internal/")
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
