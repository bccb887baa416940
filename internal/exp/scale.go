package exp

import (
	"fmt"

	"sinrmac/internal/rng"
	"sinrmac/internal/sinr"
)

// Experiment E9-scale: sharded slot evaluation at scale.
//
// Beyond the paper: the evaluation sizes the paper's experiments run at fit
// the per-pair regimes; this experiment drives the sharded evaluator across
// deployment sizes up to n = 10⁶ and records what the regime's cost model
// actually sees — the occupied-cell decomposition its memory scales with,
// the decoded receptions of full slot evaluations, and the certificate
// refine rate (the fraction of receivers the per-cell power bounds could
// not decide, each paying the exact O(k) fallback).
//
// The table is deliberately timing-free: every cell is a deterministic
// function of (Seed, n), so the determinism contract of the parallel
// harness (bit-identical tables at any worker count) extends to this
// experiment even though the evaluator itself fans slot evaluation across
// internal workers — the sharded regime's output and counters are exact,
// not heuristic, at any worker count. Wall-clock and memory measurements
// for the same configurations live in cmd/macbench (shard_n100k and the
// -large shard_n1m case), where testing.Benchmark methodology applies.

// scaleSlots is how many independent full slots each sweep point evaluates;
// refine rates and reception counts are accumulated across all of them.
const scaleSlots = 3

// scaleTxDiv sets the transmitter count per slot: k = n/scaleTxDiv, the
// dense-slot regime the sharded tier exists for (sparse slots bypass it).
const scaleTxDiv = 32

// ShardScale is experiment E9-scale (see the file comment).
func ShardScale(cfg Config) (Table, error) {
	table := Table{
		ID:    "E9-scale",
		Title: "Sharded evaluation at scale: cell decomposition, receptions and certificate refine rate vs n",
		Columns: []string{
			"n", "k", "shards", "cells", "receptions", "refine_rate",
		},
	}
	// Every size sits above sinr.DefaultMatrixThreshold, so the cell
	// lattice is selected automatically. The full sizes keep Shards: 0 —
	// the default shard count, what a simulation at that size actually
	// gets — and the quick sizes pin 8 shards.
	type point struct {
		n      int
		shards int
	}
	points := []point{{100_000, 0}, {1_000_000, 0}}
	if cfg.Quick {
		points = []point{{20_000, 8}, {50_000, 8}}
	}
	for _, pt := range points {
		k := pt.n / scaleTxDiv
		ch, _, err := sinr.DenseBenchWorkload(pt.n, k, cfg.Seed)
		if err != nil {
			return table, err
		}
		fast := sinr.NewFastChannel(ch, sinr.FastOptions{Shards: pt.shards, SparseFactor: -1})
		src := rng.New(cfg.Seed).SplitLabeled(rng.Label("E9-scale")).SplitLabeled(uint64(pt.n))
		tx := make([]int, 0, k)
		receptions := 0
		for slot := 0; slot < scaleSlots; slot++ {
			tx = tx[:0]
			for len(tx) < k {
				id := src.Intn(pt.n)
				tx = append(tx, id) // duplicates are legal; distinct ids decide decoding
			}
			for _, r := range fast.SlotReceptions(tx) {
				if r.Sender >= 0 {
					receptions++
				}
			}
		}
		st := fast.BoundsStats()
		table.AddRow(pt.n, k, fast.Shards(), fast.OccupiedCells(), receptions,
			fmt.Sprintf("%.4f", st.RefineRate()))
		fast.Close()
	}
	table.AddNote("%d full slots per point at k = n/%d; refine_rate is the fraction of receivers the per-cell certificates could not decide (each pays the exact O(k) fallback); timings and memory for these configurations are cmd/macbench's shard cases", scaleSlots, scaleTxDiv)
	return table, nil
}
