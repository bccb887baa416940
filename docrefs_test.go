package sinrmac_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdRef matches a Markdown file name, with any leading path, as comments
// cite it (e.g. "ROADMAP.md").
var mdRef = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// TestDocCitationsExist fails when a non-test Go file cites a Markdown file
// that does not exist, resolved against the repository root, so a comment
// cannot send a reader to a document the repository does not have.
func TestDocCitationsExist(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, ref := range mdRef.FindAllString(line, -1) {
				if _, err := os.Stat(ref); err != nil {
					t.Errorf("%s:%d cites %s, which does not exist", path, i+1, ref)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
