package elearncloud_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// runCheckDocs executes scripts/check-docs.sh from the repo root with
// the given KEY=value overrides (CATALOG= or ARCHDOC=), returning
// combined output and the error (nil on exit 0).
func runCheckDocs(t *testing.T, overrides ...string) (string, error) {
	t.Helper()
	cmd := exec.Command("sh", filepath.Join("scripts", "check-docs.sh"))
	cmd.Env = append(os.Environ(), overrides...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestCheckDocsCatalogCrossCheck is the negative test for the scenario
// catalog gate: scripts/check-docs.sh must pass on the committed
// docs/SCENARIOS.md, fail when a registered experiment is missing from
// the catalog, and fail when the catalog names an id the registry does
// not have. Skipped under -short: each run shells out to
// `go run ./cmd/elbench -list`.
func TestCheckDocsCatalogCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go toolchain; skipped in -short mode")
	}
	committed, err := os.ReadFile(filepath.Join("docs", "SCENARIOS.md"))
	if err != nil {
		t.Fatal(err)
	}

	// The committed catalog must be in sync with the registry.
	if out, err := runCheckDocs(t, "CATALOG="+filepath.Join("docs", "SCENARIOS.md")); err != nil {
		t.Fatalf("check-docs fails on the committed catalog: %v\n%s", err, out)
	}

	dir := t.TempDir()

	// Direction one: drop a registered id from the catalog.
	var kept []string
	for _, line := range strings.Split(string(committed), "\n") {
		if strings.Contains(line, "`table9`") {
			continue
		}
		kept = append(kept, line)
	}
	missing := filepath.Join(dir, "missing.md")
	if err := os.WriteFile(missing, []byte(strings.Join(kept, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCheckDocs(t, "CATALOG="+missing)
	if err == nil {
		t.Fatalf("catalog without table9 accepted:\n%s", out)
	}
	if !strings.Contains(out, "table9") || !strings.Contains(out, "missing from") {
		t.Fatalf("missing-id failure does not name the id:\n%s", out)
	}

	// Direction two: add a row for an id the registry does not have.
	extra := filepath.Join(dir, "extra.md")
	doctored := string(committed) + "\n| `table99` | bogus | bogus | bogus | 0s | bogus |\n"
	if err := os.WriteFile(extra, []byte(doctored), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = runCheckDocs(t, "CATALOG="+extra)
	if err == nil {
		t.Fatalf("catalog with unknown table99 accepted:\n%s", out)
	}
	if !strings.Contains(out, "table99") || !strings.Contains(out, "no such experiment") {
		t.Fatalf("unknown-id failure does not name the id:\n%s", out)
	}
}

// TestCheckDocsTagCrossCheck is the negative test for the tag layer of
// the catalog gate: a registry entry with no tags must fail the docs
// check, and a catalog row whose tags column disagrees with the
// registered tags must fail naming both sides. The registry side is
// fed through the LISTCMD= override (a canned listing file) so the
// tagless case can be exercised without doctoring the real registry.
func TestCheckDocsTagCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go toolchain; skipped in -short mode")
	}
	dir := t.TempDir()

	// A tagless registry entry is a docs failure even when the id
	// itself is catalogued. The canned listing keeps table1's real tags
	// (its catalog row must still cross-check) and strips figure10's.
	listing := filepath.Join(dir, "listing.txt")
	canned := "table1\tMerits\t@paper @des @cost\nfigure10\tStorm\t\n"
	if err := os.WriteFile(listing, []byte(canned), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCheckDocs(t, "LISTCMD=cat "+listing)
	if err == nil {
		t.Fatalf("tagless figure10 accepted:\n%s", out)
	}
	if !strings.Contains(out, "figure10") || !strings.Contains(out, "without any tags") {
		t.Fatalf("tagless failure does not name the entry:\n%s", out)
	}

	// A catalog/registry tag mismatch fails and reports both tag sets.
	listing2 := filepath.Join(dir, "listing2.txt")
	canned2 := "table1\tMerits\t@paper @des @security\n"
	if err := os.WriteFile(listing2, []byte(canned2), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = runCheckDocs(t, "LISTCMD=cat "+listing2)
	if err == nil {
		t.Fatalf("mismatched table1 tags accepted:\n%s", out)
	}
	if !strings.Contains(out, "tags for table1") ||
		!strings.Contains(out, "@paper @des @security") ||
		!strings.Contains(out, "@paper @des @cost") {
		t.Fatalf("tag-mismatch failure does not show both sides:\n%s", out)
	}

	// The committed registry and catalog must agree (the real listing).
	if out, err := runCheckDocs(t); err != nil {
		t.Fatalf("check-docs fails on the committed tag layer: %v\n%s", err, out)
	}
}

// TestCheckDocsAnalyzerCrossCheck is the negative test for the
// determinism-analyzer gate: scripts/check-docs.sh must pass on the
// committed ARCHITECTURE.md, fail when a registered analyzer's row is
// dropped from the invariants table, and fail when the table documents
// an analyzer elvet does not register. Skipped under -short: each run
// shells out to `go run ./cmd/elvet -list` (and elbench for the
// catalog half).
func TestCheckDocsAnalyzerCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go toolchain; skipped in -short mode")
	}
	committed, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}

	if out, err := runCheckDocs(t, "ARCHDOC=ARCHITECTURE.md"); err != nil {
		t.Fatalf("check-docs fails on the committed ARCHITECTURE.md: %v\n%s", err, out)
	}

	dir := t.TempDir()

	// Direction one: drop a registered analyzer's table row.
	var kept []string
	for _, line := range strings.Split(string(committed), "\n") {
		if strings.HasPrefix(line, "| `maporder` |") {
			continue
		}
		kept = append(kept, line)
	}
	missing := filepath.Join(dir, "missing.md")
	if err := os.WriteFile(missing, []byte(strings.Join(kept, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCheckDocs(t, "ARCHDOC="+missing)
	if err == nil {
		t.Fatalf("invariants table without maporder accepted:\n%s", out)
	}
	if !strings.Contains(out, "maporder") || !strings.Contains(out, "missing from") {
		t.Fatalf("missing-analyzer failure does not name the analyzer:\n%s", out)
	}

	// Direction two: document an analyzer the registry does not have.
	doctored := strings.Replace(string(committed),
		"| `maporder` |",
		"| `mapdisorder` | bogus | bogus |\n| `maporder` |", 1)
	extra := filepath.Join(dir, "extra.md")
	if err := os.WriteFile(extra, []byte(doctored), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = runCheckDocs(t, "ARCHDOC="+extra)
	if err == nil {
		t.Fatalf("invariants table with unknown mapdisorder accepted:\n%s", out)
	}
	if !strings.Contains(out, "mapdisorder") || !strings.Contains(out, "does not register") {
		t.Fatalf("unknown-analyzer failure does not name the analyzer:\n%s", out)
	}
}

// TestDocsNameDeclaredIdentifiers: every `pkg.Ident` that ARCHITECTURE.md,
// README.md, docs/*.md or an internal package's doc.go names, for pkg an
// internal package, is a function, method, type, variable or constant
// that package's non-test code declares, so a rename or deletion cannot
// leave a document naming API that is gone. bench/ has its own module
// and documents and is not checked.
func TestDocsNameDeclaredIdentifiers(t *testing.T) {
	decls := internalDecls(t)
	docs := []string{"ARCHITECTURE.md", "README.md"}
	for _, pattern := range []string{"docs/*.md", "internal/*/doc.go"} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, matches...)
	}
	refs := 0
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		n, stale := undeclaredRefs(string(text), decls)
		refs += n
		for _, ref := range stale {
			t.Errorf("%s names %s, which package %s does not declare", doc, ref, strings.Split(ref, ".")[0])
		}
	}
	t.Logf("%d pkg.Ident references in %d documents", refs, len(docs))
	// The documents name dozens of identifiers; finding few means the
	// scan, not the documents, is broken.
	if refs < 50 {
		t.Fatalf("found %d pkg.Ident references in %d documents, want at least 50", refs, len(docs))
	}
	// A name that is gone, such as lms.NewAssetStore, is caught.
	if _, stale := undeclaredRefs("`lms.NewAssetStore` and `lms.NewInventory`", decls); len(stale) != 1 || stale[0] != "lms.NewAssetStore" {
		t.Errorf("stale references in a probe naming lms.NewAssetStore and lms.NewInventory: %v, want [lms.NewAssetStore]", stale)
	}
}

// internalDecls maps each package under internal/ to the identifiers
// its non-test Go files declare at package level, methods included.
func internalDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("internal", "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := filepath.Base(filepath.Dir(file))
		if decls[pkg] == nil {
			decls[pkg] = map[string]bool{}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				decls[pkg][d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						decls[pkg][spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							decls[pkg][name.Name] = true
						}
					}
				}
			}
		}
	}
	return decls
}

// undeclaredRefs counts the exported `pkg.Ident` references in text
// whose pkg is an internal package, and returns those its package does
// not declare.
func undeclaredRefs(text string, decls map[string]map[string]bool) (refs int, stale []string) {
	names := slices.Sorted(maps.Keys(decls))
	ref := regexp.MustCompile(fmt.Sprintf(`\b(%s)\.([A-Z][A-Za-z0-9_]*)`, strings.Join(names, "|")))
	for _, m := range ref.FindAllStringSubmatch(text, -1) {
		refs++
		if !decls[m[1]][m[2]] {
			stale = append(stale, m[1]+"."+m[2])
		}
	}
	return refs, stale
}
