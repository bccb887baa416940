// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates the corresponding experiment table
// through the internal/exp harness and reports the headline measurement as
// a custom metric, so `go test -bench=. -benchmem` reproduces the full
// evaluation from scratch.
//
// The benchmarks use one trial per data point (cmd/experiments can be used
// for averaged tables); use -benchtime=1x to run each table exactly once.
package sinrmac_test

import (
	"fmt"
	"strconv"
	"testing"

	"sinrmac/internal/exp"
	"sinrmac/internal/sinr"
)

// benchConfig is the configuration used by all benchmarks: full sweeps, one
// trial per point, fixed seed.
func benchConfig() exp.Config {
	return exp.Config{Seed: 1, Trials: 1}
}

// lastRowValue extracts a numeric cell from the last row of a table, used
// to surface the headline number of each experiment as a benchmark metric.
func lastRowValue(b *testing.B, table exp.Table, col int) float64 {
	b.Helper()
	if len(table.Rows) == 0 {
		b.Fatalf("%s produced no rows", table.ID)
	}
	row := table.Rows[len(table.Rows)-1]
	if col >= len(row) {
		b.Fatalf("%s row has %d columns, want %d", table.ID, len(row), col+1)
	}
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		b.Fatalf("%s cell %q not numeric: %v", table.ID, row[col], err)
	}
	return v
}

// runExperiment runs one experiment per benchmark iteration and logs the
// resulting table once.
func runExperiment(b *testing.B, runner exp.Runner, metricCol int, metricName string) {
	b.Helper()
	var table exp.Table
	var err error
	for i := 0; i < b.N; i++ {
		table, err = runner(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastRowValue(b, table, metricCol), metricName)
	b.Logf("\n%s", table.Format())
}

// BenchmarkTable1Ack regenerates the Table 1 f_ack row (Theorem 5.1):
// acknowledgment latency as a function of the degree Δ.
func BenchmarkTable1Ack(b *testing.B) {
	runExperiment(b, exp.AckScaling, 2, "slots/fack_at_max_delta")
}

// BenchmarkFigure1ProgressLB regenerates Figure 1 / Theorem 6.1: the
// two-parallel-lines construction on which any scheduler needs Δ slots.
func BenchmarkFigure1ProgressLB(b *testing.B) {
	runExperiment(b, exp.ProgressLowerBound, 2, "slots/optimal_schedule")
}

// BenchmarkTable1ApproxProgress regenerates the Table 1 f_approg row
// (Theorem 9.1): approximate-progress latency as a function of Δ.
func BenchmarkTable1ApproxProgress(b *testing.B) {
	runExperiment(b, exp.ApproxProgressScaling, 3, "slots/approg_at_max_delta")
}

// BenchmarkTheorem8Decay regenerates the Theorem 8.1 comparison: Decay vs
// Algorithm 9.1 on the two-balls construction.
func BenchmarkTheorem8Decay(b *testing.B) {
	runExperiment(b, exp.DecayVsApprog, 1, "slots/decay_at_max_delta")
}

// BenchmarkTable2SMB regenerates Table 2 / the Table 1 SMB row: global
// single-message broadcast comparison against the [14]-style direct
// broadcast and Decay flooding.
func BenchmarkTable2SMB(b *testing.B) {
	runExperiment(b, exp.SMBComparison, 4, "slots/smb_at_max_n")
}

// BenchmarkTable1MMB regenerates the Table 1 MMB row: multi-message
// broadcast completion time as a function of k.
func BenchmarkTable1MMB(b *testing.B) {
	runExperiment(b, exp.MMBScaling, 3, "slots/mmb_at_max_k")
}

// BenchmarkTable1Consensus regenerates the Table 1 CONS row (Corollary
// 5.5): consensus completion time as a function of the diameter.
func BenchmarkTable1Consensus(b *testing.B) {
	runExperiment(b, exp.ConsensusScaling, 3, "slots/cons_at_max_diam")
}

// BenchmarkSuiteQuick runs the entire E1–E7 quick-mode suite end to end at
// one and eight trial workers. The tables are bit-identical across the two
// (asserted by TestParallelTablesBitIdentical in internal/exp); only
// wall-clock differs, so the sub-benchmark ratio is the scheduler's
// speedup on the host. Use -benchtime=1x for a single timed suite run.
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

// slotScenario builds the large-n channel-engine workload via the shared
// sinr.BenchWorkload definition (constant density, 10% transmitting), the
// same regime cmd/macbench -json measures.
func slotScenario(b *testing.B, n int) (*sinr.Channel, []int) {
	b.Helper()
	ch, tx, err := sinr.BenchWorkload(n, 8)
	if err != nil {
		b.Fatal(err)
	}
	return ch, tx
}

// benchSlotReceptions compares the naive reference evaluator against the
// fast engine on the same deployment and transmitter set. The two must
// produce identical receptions (differentially tested in internal/sinr);
// only wall-clock time may differ. Run with -benchtime=5x or similar for a
// quick comparison; the sub-benchmark ratio is the speedup.
func benchSlotReceptions(b *testing.B, n int) {
	ch, tx := slotScenario(b, n)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ch.SlotReceptions(tx)
		}
	})
	b.Run("fast", func(b *testing.B) {
		fast := sinr.NewFastChannel(ch)
		fast.SlotReceptions(tx) // warm the scratch arenas like a running simulation
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fast.SlotReceptions(tx)
		}
	})
}

// BenchmarkSlotReceptions1k exercises the matrix regime (n below
// sinr.DefaultMatrixThreshold): every slot, dense ones included, reads the
// cached power matrix; there is no certified tier.
func BenchmarkSlotReceptions1k(b *testing.B) { benchSlotReceptions(b, 1000) }

// BenchmarkSlotReceptions5k exercises the cell lattice (n above
// sinr.DefaultMatrixThreshold) and, where its cost model selects them, its
// certified bounds.
func BenchmarkSlotReceptions5k(b *testing.B) { benchSlotReceptions(b, 5000) }

// BenchmarkSlotReceptions10k is the node-count regime the ROADMAP's
// related-work targets (decentralized coloring, CONGEST LLL evaluations)
// simulate at.
func BenchmarkSlotReceptions10k(b *testing.B) { benchSlotReceptions(b, 10000) }
