// Package detrand forbids wall-clock and ambient-randomness sources in the
// simulator's decision-path packages.
//
// Every reception table, protocol decision and experiment row in this
// repository must be a pure function of explicit seeds: the differential
// suites assert bit-identity across worker counts, shard counts and fault
// plans, and one time.Now() or math/rand global on a decision path
// silently breaks all of them. Randomness must come from
// internal/rng sources threaded through labelled splits; time may only be
// read by annotated instrumentation sites whose results are reported,
// never acted on.
package detrand

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"sinrmac/internal/analysis"
)

// decisionPackages are the packages whose code decides simulation outcomes:
// the engine slot path, the SINR evaluators and their geometry, the fault
// injector, the experiment harness and scheduler, every protocol package,
// and the deterministic rng and topology layers they draw on.
var decisionPackages = map[string]bool{
	"sinrmac/internal/sim":        true,
	"sinrmac/internal/sinr":       true,
	"sinrmac/internal/fault":      true,
	"sinrmac/internal/exp":        true,
	"sinrmac/internal/rng":        true,
	"sinrmac/internal/geom":       true,
	"sinrmac/internal/topology":   true,
	"sinrmac/internal/core":       true,
	"sinrmac/internal/stats":      true,
	"sinrmac/internal/graphs":     true,
	"sinrmac/internal/workpool":   true,
	"sinrmac/internal/hmbcast":    true,
	"sinrmac/internal/decay":      true,
	"sinrmac/internal/approgress": true,
	"sinrmac/internal/macnode":    true,
	"sinrmac/internal/mac":        true,
	"sinrmac/internal/bcastproto": true,
	"sinrmac/internal/consensus":  true,
}

// forbiddenImports are packages whose mere presence on a decision path is a
// violation: their randomness is process-global or OS-seeded and cannot be
// replayed from an experiment seed.
var forbiddenImports = map[string]string{
	"math/rand":    "use internal/rng sources split from explicit seeds",
	"math/rand/v2": "use internal/rng sources split from explicit seeds",
	"crypto/rand":  "use internal/rng sources split from explicit seeds",
}

// forbiddenTime are the wall-clock entry points of package time. Reading
// the clock is only legitimate for instrumentation that reports timings
// without acting on them — and such sites carry //sinrlint:allow detrand
// with a justification.
var forbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true, "Sleep": true,
}

// Analyzer is the detrand check.
var Analyzer = &analysis.Analyzer{
	Name:  "detrand",
	Doc:   "forbid wall-clock reads and ambient randomness in decision-path packages",
	Match: func(path string) bool { return decisionPackages[path] },
	Run:   run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.NonTestFiles() {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if hint, bad := forbiddenImports[path]; bad {
				pass.Reportf(imp.Pos(), "import of %s in decision-path package: %s", path, hint)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.ObjectOf(id).(*types.PkgName)
			if !ok {
				return true
			}
			switch pkgName.Imported().Path() {
			case "time":
				if forbiddenTime[sel.Sel.Name] {
					pass.Reportf(sel.Pos(), "wall-clock read time.%s in decision-path package; decisions must derive from explicit seeds and slot counters", sel.Sel.Name)
				}
			case "math/rand", "math/rand/v2", "crypto/rand":
				// Imports are already flagged; flagging each use as well
				// points at every site that needs migrating to internal/rng.
				pass.Reportf(sel.Pos(), "ambient randomness %s.%s in decision-path package; use internal/rng sources split from explicit seeds", pkgPathBase(pkgName.Imported().Path()), sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}

func pkgPathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
