package exp

import (
	"fmt"
	"math"

	"sinrmac/internal/approgress"
	"sinrmac/internal/bcastproto"
	"sinrmac/internal/consensus"
	"sinrmac/internal/core"
	"sinrmac/internal/decay"
	"sinrmac/internal/hmbcast"
	"sinrmac/internal/mac"
	"sinrmac/internal/macnode"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
	"sinrmac/internal/sinr"
	"sinrmac/internal/stats"
	"sinrmac/internal/topology"
)

// globalRange is the transmission range used by the global broadcast and
// consensus experiments.
const globalRange = 12

// buildUniform builds a connected uniform deployment of n nodes with
// roughly constant density, so the diameter grows with sqrt(n).
func buildUniform(n int, src *rng.Source) (*topology.Deployment, error) {
	side := 2.2 * math.Sqrt(float64(n)) * 2
	return topology.ConnectedUniform(n, side, sinr.DefaultParams(globalRange), src, 100)
}

// runBMMBOverMACs wires one BMMB layer per node over the MAC nodes produced
// by newMAC, starts the given messages at their origins and returns the
// global completion slot (or the deadline if incomplete). It runs on the
// trial's reusable engine.
func runBMMBOverMACs(tc *TrialContext, d *topology.Deployment, msgs []core.Message, deadline int64,
	newMAC func() *macnode.Node) (float64, bool, error) {

	layers := make([]*bcastproto.BMMB, d.NumNodes())
	nodes := make([]sim.Node, d.NumNodes())
	for i := range nodes {
		var initial []core.Message
		for _, m := range msgs {
			if m.Origin == i {
				initial = append(initial, m)
			}
		}
		layers[i] = bcastproto.NewBMMB(initial...)
		n := newMAC()
		n.SetLayer(layers[i])
		nodes[i] = n
	}
	eng, err := tc.Engine(nodes)
	if err != nil {
		return 0, false, err
	}
	ids := bcastproto.MessageIDs(msgs)
	eng.Run(deadline, func() bool { return bcastproto.AllDelivered(layers, ids) })
	slot, ok := bcastproto.CompletionSlot(layers, ids)
	if !ok {
		return float64(deadline), false, nil
	}
	return float64(slot), true, nil
}

// runDirectSMB runs the Daum et al. [14]-style direct broadcast: relay
// layers over progress-only nodes with w.h.p. parameters (ε = 1/n).
func runDirectSMB(tc *TrialContext, d *topology.Deployment, msg core.Message, deadline int64) (float64, bool, error) {
	apCfg := approgress.SimConfig(d.Lambda(), 1/float64(d.NumNodes()), 3)

	layers := make([]*bcastproto.Relay, d.NumNodes())
	nodes := make([]sim.Node, d.NumNodes())
	for i := range nodes {
		var initial *core.Message
		if msg.Origin == i {
			cp := msg
			initial = &cp
		}
		layers[i] = bcastproto.NewRelay(msg.ID, initial)
		n := approgress.NewNode(apCfg, 0, nil)
		n.SetLayer(layers[i])
		nodes[i] = n
	}
	eng, err := tc.Engine(nodes)
	if err != nil {
		return 0, false, err
	}
	eng.Run(deadline, func() bool {
		_, done := bcastproto.RelayCompletionSlot(layers)
		return done
	})
	slot, ok := bcastproto.RelayCompletionSlot(layers)
	if !ok {
		return float64(deadline), false, nil
	}
	return float64(slot), true, nil
}

// smbTrialResult is one E5 trial: the completion slot of each broadcast
// strategy plus the point's deployment statistics.
type smbTrialResult struct {
	ours, daum, decay float64
	diam, delta       int
	lambda            float64
}

// SMBComparison is experiment E5-smb: global single-message broadcast with
// the MAC-based BSMB protocol (this paper), the direct [14]-style
// broadcast, and Decay flooding (Table 1 SMB row and Table 2).
func SMBComparison(cfg Config) (Table, error) {
	table := Table{
		ID:    "E5-smb",
		Title: "Table 2 / Theorem 12.7: global single-message broadcast comparison",
		Columns: []string{
			"n", "diam", "delta", "lambda", "this_paper", "daum_direct", "decay_flood", "theory_smb",
		},
	}
	sizes := []int{30, 60, 120}
	if cfg.Quick {
		sizes = []int{20, 35}
	}
	trials := cfg.trials(2)

	res, err := runTrials(cfg, "E5-smb", len(sizes), trials, func(tc *TrialContext) (smbTrialResult, error) {
		n := sizes[tc.Point]
		d, err := tc.Deployment(func(src *rng.Source) (*topology.Deployment, error) {
			return buildUniform(n, src)
		})
		if err != nil {
			return smbTrialResult{}, err
		}
		strong := d.StrongGraph()
		diam := strong.Diameter()
		delta := strong.MaxDegree()
		lambda := d.Lambda()
		msg := core.Message{ID: 1, Origin: 0, Payload: "smb"}

		macCfg := mac.SimConfig(lambda, 3, core.DefaultParams())
		rec := core.NewRecorder()
		deadline := int64(core.TheoreticalFack(delta, lambda, 0.1)) * int64(diam+5) * 50
		t1, _, err := runBMMBOverMACs(tc, d, []core.Message{msg}, deadline,
			func() *macnode.Node { return mac.New(macCfg, rec) })
		if err != nil {
			return smbTrialResult{}, err
		}

		t2, _, err := runDirectSMB(tc, d, msg, deadline)
		if err != nil {
			return smbTrialResult{}, err
		}

		dcCfg := decay.DefaultConfig(float64(n), 0.1)
		t3, _, err := runBMMBOverMACs(tc, d, []core.Message{msg}, deadline,
			func() *macnode.Node { return decay.New(dcCfg, nil) })
		if err != nil {
			return smbTrialResult{}, err
		}
		return smbTrialResult{ours: t1, daum: t2, decay: t3, diam: diam, delta: delta, lambda: lambda}, nil
	})
	if err != nil {
		return table, err
	}

	var diams, ours []float64
	for pi, n := range sizes {
		var oursLat, daumLat, decayLat []float64
		for _, r := range res[pi] {
			oursLat = append(oursLat, r.ours)
			daumLat = append(daumLat, r.daum)
			decayLat = append(decayLat, r.decay)
		}
		diam, delta, lambda := res[pi][0].diam, res[pi][0].delta, res[pi][0].lambda
		theory := core.TheoreticalSMB(diam, n, lambda, 3, 0.1)
		table.AddRow(n, diam, delta, lambda,
			stats.Median(oursLat), stats.Median(daumLat), stats.Median(decayLat), theory)
		diams = append(diams, float64(diam))
		ours = append(ours, stats.Median(oursLat))
	}
	if len(diams) >= 2 {
		if fit, err := stats.LinearFit(diams, ours); err == nil {
			table.AddNote("this_paper SMB time ≈ %.0f·D + %.0f (R²=%.2f): linear in the diameter as Theorem 12.7 predicts", fit.Slope, fit.Intercept, fit.R2)
		}
	}
	return table, nil
}

// mmbTrialResult is one E6 trial: completion slots for the MAC-based and
// Decay-flooding strategies plus the point's deployment statistics.
type mmbTrialResult struct {
	ours, decay float64
	diam        int
	lambda      float64
}

// MMBScaling is experiment E6-mmb: global multi-message broadcast cost as a
// function of the number of messages k (Table 1 MMB row).
func MMBScaling(cfg Config) (Table, error) {
	table := Table{
		ID:    "E6-mmb",
		Title: "Theorem 12.7: global multi-message broadcast vs number of messages k",
		Columns: []string{
			"k", "n", "diam", "this_paper", "decay_flood", "theory_mmb",
		},
	}
	ks := []int{1, 2, 4, 8}
	if cfg.Quick {
		ks = []int{1, 2}
	}
	n := 40
	if cfg.Quick {
		n = 24
	}
	trials := cfg.trials(2)

	res, err := runTrials(cfg, "E6-mmb", len(ks), trials, func(tc *TrialContext) (mmbTrialResult, error) {
		k := ks[tc.Point]
		d, err := tc.Deployment(func(src *rng.Source) (*topology.Deployment, error) {
			return buildUniform(n, src)
		})
		if err != nil {
			return mmbTrialResult{}, err
		}
		diam := d.StrongGraph().Diameter()
		lambda := d.Lambda()
		msgs := make([]core.Message, k)
		for i := range msgs {
			msgs[i] = core.Message{ID: core.MessageID(100 + i), Origin: tc.Src.Intn(n), Payload: i}
		}

		macCfg := mac.SimConfig(lambda, 3, core.DefaultParams())
		delta := d.StrongGraph().MaxDegree()
		deadline := int64(core.TheoreticalFack(delta, lambda, 0.1)) * int64(diam+5+3*k) * 50
		t1, _, err := runBMMBOverMACs(tc, d, msgs, deadline,
			func() *macnode.Node { return mac.New(macCfg, nil) })
		if err != nil {
			return mmbTrialResult{}, err
		}

		dcCfg := decay.DefaultConfig(float64(n), 0.1)
		t2, _, err := runBMMBOverMACs(tc, d, msgs, deadline,
			func() *macnode.Node { return decay.New(dcCfg, nil) })
		if err != nil {
			return mmbTrialResult{}, err
		}
		return mmbTrialResult{ours: t1, decay: t2, diam: diam, lambda: lambda}, nil
	})
	if err != nil {
		return table, err
	}

	var xs, ys []float64
	for pi, k := range ks {
		var oursLat, decayLat []float64
		for _, r := range res[pi] {
			oursLat = append(oursLat, r.ours)
			decayLat = append(decayLat, r.decay)
		}
		diam, lambda := res[pi][0].diam, res[pi][0].lambda
		theory := core.TheoreticalMMB(diam, 8, n, k, lambda, 3, 0.1)
		table.AddRow(k, n, diam, stats.Median(oursLat), stats.Median(decayLat), theory)
		xs = append(xs, float64(k))
		ys = append(ys, stats.Median(oursLat))
	}
	if len(xs) >= 2 {
		if fit, err := stats.LinearFit(xs, ys); err == nil {
			table.AddNote("this_paper MMB time ≈ %.0f·k + %.0f (R²=%.2f): additive in k rather than multiplicative in D·Δ·k", fit.Slope, fit.Intercept, fit.R2)
		}
	}
	return table, nil
}

// consTrialResult is one E7 trial: the decision slot, whether agreement
// held, and the point's deployment statistics.
type consTrialResult struct {
	slot        float64
	agreement   bool
	diam, delta int
	lambda      float64
}

// ConsensusScaling is experiment E7-cons: network-wide consensus completion
// time as a function of the diameter (Corollary 5.5).
func ConsensusScaling(cfg Config) (Table, error) {
	table := Table{
		ID:    "E7-cons",
		Title: "Corollary 5.5: consensus completion time vs diameter",
		Columns: []string{
			"n", "diam", "delta", "decision_slot", "theory_cons", "agreement",
		},
	}
	sizes := []int{8, 16, 32}
	if cfg.Quick {
		sizes = []int{6, 10}
	}
	trials := cfg.trials(2)
	const epsAck = 0.05

	res, err := runTrials(cfg, "E7-cons", len(sizes), trials, func(tc *TrialContext) (consTrialResult, error) {
		n := sizes[tc.Point]
		d, err := tc.Deployment(func(src *rng.Source) (*topology.Deployment, error) {
			return topology.Line(n, 4, sinr.DefaultParams(globalRange))
		})
		if err != nil {
			return consTrialResult{}, err
		}
		strong := d.StrongGraph()
		diam := strong.Diameter()
		delta := strong.MaxDegree()
		lambda := d.Lambda()

		macCfg := hmbcast.SimConfig(lambda, epsAck)

		initials := make([]consensus.Value, n)
		for i := range initials {
			initials[i] = consensus.Value(uint8(tc.Src.Intn(2)))
		}
		layers := make([]*consensus.Node, n)
		nodes := make([]sim.Node, n)
		for i := range nodes {
			l, err := consensus.New(consensus.Config{Rounds: diam + 2}, initials[i])
			if err != nil {
				return consTrialResult{}, err
			}
			layers[i] = l
			node := hmbcast.New(macCfg, nil)
			node.SetLayer(l)
			nodes[i] = node
		}
		eng, err := tc.Engine(nodes)
		if err != nil {
			return consTrialResult{}, err
		}
		deadline := int64(core.TheoreticalFack(delta, lambda, epsAck)) * int64(diam+4) * 200
		eng.Run(deadline, func() bool {
			_, done := consensus.DecisionSlot(layers)
			return done
		})
		slot, done := consensus.DecisionSlot(layers)
		if !done {
			slot = deadline
		}
		agreement := consensus.CheckAgreement(layers, initials) == nil
		return consTrialResult{slot: float64(slot), agreement: agreement, diam: diam, delta: delta, lambda: lambda}, nil
	})
	if err != nil {
		return table, err
	}

	var diams, times []float64
	for pi, n := range sizes {
		var lat []float64
		agreementOK := true
		for _, r := range res[pi] {
			lat = append(lat, r.slot)
			if !r.agreement {
				agreementOK = false
			}
		}
		diam, delta, lambda := res[pi][0].diam, res[pi][0].delta, res[pi][0].lambda
		theory := core.TheoreticalCons(diam, delta, n, lambda, 0.1)
		table.AddRow(n, diam, delta, stats.Median(lat), theory, fmt.Sprintf("%v", agreementOK))
		diams = append(diams, float64(diam))
		times = append(times, stats.Median(lat))
	}
	if len(diams) >= 2 {
		if fit, err := stats.LinearFit(diams, times); err == nil {
			table.AddNote("consensus time ≈ %.0f·D + %.0f (R²=%.2f): linear in D·f_ack as Corollary 5.5 predicts", fit.Slope, fit.Intercept, fit.R2)
		}
	}
	return table, nil
}
