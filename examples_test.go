package elearncloud_test

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExamplesOutput pins what the runnable examples print: it builds
// every program under examples/, runs each one, and compares its
// standard output byte for byte with testdata/examples/<name>.txt. The
// examples are deterministic (each bakes in its seed), so a difference
// is a change in the model or in a package they print from. A change
// meant to move an example's output regenerates its file with the
// command the failure prints. Skipped under -short: it shells out to
// the go toolchain and runs all seven examples (about 11 s on 2 vCPUs).
func TestExamplesOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example; skipped in -short mode")
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	pinned, err := filepath.Glob(filepath.Join("testdata", "examples", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pinned) != len(names) {
		t.Errorf("testdata/examples pins %d outputs for %d examples: add or delete files to match examples/", len(pinned), len(names))
	}

	bin := t.TempDir()
	goTool(t, "build", "-o", bin+string(filepath.Separator), "./examples/...")
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(bin, name))
			var stderr strings.Builder
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("examples/%s: %v\n%s", name, err, stderr.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", "examples", name+".txt"))
			if err != nil {
				t.Fatalf("%v (regenerate with: go run ./examples/%s > testdata/examples/%s.txt)", err, name, name)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("examples/%s output differs from testdata/examples/%s.txt at %s\n"+
					"if the change is meant, regenerate with: go run ./examples/%s > testdata/examples/%s.txt",
					name, name, firstDiff(got, want), name, name)
			}
		})
	}
}

// firstDiff describes the first line where got and want differ.
func firstDiff(got, want []byte) string {
	g := strings.Split(string(got), "\n")
	w := strings.Split(string(want), "\n")
	for i := range max(len(g), len(w)) {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, lineAt(g, i), lineAt(w, i))
		}
	}
	return "end of output"
}

// lineAt returns lines[i], or "" past the end.
func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}
