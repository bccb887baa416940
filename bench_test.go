// Benchmark harness: BenchmarkSuiteQuick times the whole quick suite, which
// CI runs once per push. The per-experiment tables come from
// cmd/experiments, their timings from cmd/sinrbench's exp.*_s metrics, and
// the slot pipeline's kernel timings from cmd/macbench.
package sinrmac_test

import (
	"fmt"
	"testing"

	"sinrmac/internal/exp"
)

// BenchmarkSuiteQuick runs every registered experiment (exp.RunAll) in
// quick mode end to end at one and eight trial workers. The tables are
// bit-identical across the two (asserted by TestParallelTablesBitIdentical
// in internal/exp); only wall-clock differs, so the sub-benchmark ratio is
// the scheduler's speedup on the host. Use -benchtime=1x for a single timed suite run.
func BenchmarkSuiteQuick(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := exp.Config{Seed: 1, Trials: 3, Quick: true, Workers: workers}
				if _, err := exp.RunAll(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
