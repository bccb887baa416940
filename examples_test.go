package sinrmac_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesMatchGolden builds every program under examples/, runs it and
// compares its stdout with examples/testdata/<name>.golden. The examples
// are seeded, so their output is fixed; quickstart drives the combined MAC
// and core.CheckAcks and core.MeasureProgress end to end. After an
// intended change of output, regenerate a golden file with
//
//	go run ./examples/<name> > examples/testdata/<name>.golden
func TestExamplesMatchGolden(t *testing.T) {
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, e := range entries {
		if !e.IsDir() || e.Name() == "testdata" {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("examples", "testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.Bytes())
			}
			if got := stdout.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("%s stdout differs from its golden file\ngot:\n%s\nwant:\n%s", name, got, want)
			}
		})
		ran++
	}
	if ran == 0 {
		t.Fatal("found no examples")
	}
}
