package sinrmac_test

import (
	"testing"

	"sinrmac/internal/analysis/driver"
	"sinrmac/internal/analysis/suite"
)

// TestSinrlintClean runs the sinrlint suite over every package of the
// module, as `go run ./cmd/sinrlint ./...` does, and fails on any
// diagnostic, so an invariant violation fails the tier-1 tests and not only
// CI. driver.Load type-checks each package's GoFiles: _test.go files are
// checked by CI's `go vet -vettool` run alone.
func TestSinrlintClean(t *testing.T) {
	pkgs, err := driver.Load("", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	diags, fset, err := driver.Run(pkgs, suite.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s: %s", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}
