package exp

import (
	"fmt"

	"sinrmac/internal/consensus"
	"sinrmac/internal/core"
	"sinrmac/internal/fault"
	"sinrmac/internal/mac"
	"sinrmac/internal/rng"
	"sinrmac/internal/sim"
	"sinrmac/internal/sinr"
	"sinrmac/internal/stats"
	"sinrmac/internal/topology"
)

// faultPoint is one sweep point of E10: a fault intensity triple.
type faultPoint struct {
	crash float64 // per-node crash probability
	jam   int     // jammers injected per jammed slot
	byz   float64 // Byzantine node fraction
}

// faultTrialResult is one E10 trial under one fault plan.
type faultTrialResult struct {
	crashed, panics, jamSlots int
	decidedFrac               float64
	agree, valid              int
	quorum                    bool
	ackMiss                   int
	slot                      float64
}

// FaultDegradation is experiment E10-fault: graceful degradation of the
// combined MAC plus the consensus layer under a deterministic fault plan.
// Each sweep point runs consensus on a line deployment while the
// internal/fault injector crashes nodes, jams slots and wraps a fraction of
// the nodes in Byzantine adversaries (spam plus payload equivocation). The
// checkers then count — rather than assert — violations among the correct
// nodes: decision coverage, agreement/validity breaches
// (consensus.CheckFaulty), the majority-quorum assumption, and
// acknowledgment deadline misses over the MAC trace (core.CheckDeadlines).
// The zero-fault point doubles as the control: it must decide fully with no
// violations, pinning the fault layer's "off means off" contract at the
// experiment level.
func FaultDegradation(cfg Config) (Table, error) {
	table := Table{
		ID:    "E10-fault",
		Title: "graceful degradation: consensus under crash × jam × Byzantine faults",
		Columns: []string{
			"crash", "jam", "byz", "crashed", "panics", "jam_slots",
			"decided", "agree_viol", "valid_viol", "quorum", "ack_miss", "decision_slot",
		},
	}
	points := []faultPoint{
		{0, 0, 0},
		{0.15, 0, 0},
		{0, 2, 0},
		{0, 0, 0.15},
		{0.15, 2, 0.15},
		{0.3, 4, 0.3},
	}
	n := 16
	if cfg.Quick {
		points = points[:4]
		n = 10
	}
	trials := cfg.trials(2)
	const epsAck = 0.05

	res, err := runTrials(cfg, "E10-fault", len(points), trials, func(tc *TrialContext) (faultTrialResult, error) {
		fp := points[tc.Point]
		d, err := tc.Deployment(func(src *rng.Source) (*topology.Deployment, error) {
			return topology.Line(n, 4, sinr.DefaultParams(globalRange))
		})
		if err != nil {
			return faultTrialResult{}, err
		}
		strong := d.StrongGraph()
		diam := strong.Diameter()
		delta := strong.MaxDegree()
		lambda := d.Lambda()
		ch, err := tc.Channel()
		if err != nil {
			return faultTrialResult{}, err
		}
		// The injector carries per-trial schedule state, so the engine is
		// trial-private; the evaluator fork is too (closed with the trial).
		fast := sinr.NewFastChannel(ch)
		defer fast.Close()

		fack := int64(core.TheoreticalFack(delta, lambda, epsAck))
		deadline := fack * int64(diam+4) * 200
		// Crash/recover windows are sized to the decision timescale (a few
		// fack·diam periods), not to the worst-case deadline: a schedule
		// far beyond the decision slot would never fire.
		horizon := fack * int64(diam+4) * 10
		plan := fault.Plan{
			Seed:              tc.Src.Uint64(),
			CrashRate:         fp.crash,
			CrashWindow:       horizon,
			RecoverRate:       0.5,
			RecoverDelay:      horizon / 4,
			JamRate:           0.25,
			JamPower:          fp.jam,
			ByzantineFraction: fp.byz,
			SpamRate:          0.25,
			Mutate: func(slot int64, node int, f *sim.Frame, src *rng.Source) {
				// Equivocate on the consensus payload when one is attached,
				// otherwise garble the message identity.
				if p, ok := f.Msg.Payload.(consensus.Payload); ok {
					p.Value ^= 1
					f.Msg.Payload = p
				} else {
					f.Msg.ID ^= 0x5a5a
				}
			},
		}
		inj, err := fault.NewInjector(plan, n)
		if err != nil {
			return faultTrialResult{}, err
		}

		macCfg := mac.SimConfig(lambda, 3, core.DefaultParams())
		rec := core.NewRecorder()
		initials := make([]consensus.Value, n)
		layers := make([]*consensus.Node, n)
		nodes := make([]sim.Node, n)
		for i := range nodes {
			initials[i] = consensus.Value(uint8(tc.Src.Intn(2)))
			l, err := consensus.New(consensus.Config{Rounds: diam + 2}, initials[i])
			if err != nil {
				return faultTrialResult{}, err
			}
			layers[i] = l
			node := mac.New(macCfg, rec)
			node.SetLayer(l)
			nodes[i] = node
		}
		eng, err := tc.PrivateEngine(ch, inj.WrapNodes(nodes), fast, inj)
		if err != nil {
			return faultTrialResult{}, err
		}
		correctDecided := func() bool {
			for i, l := range layers {
				if inj.Inert(i) || inj.Byzantine(i) {
					continue
				}
				if ok, _, _ := l.Decided(); !ok {
					return false
				}
			}
			return true
		}
		eng.Run(deadline, correctDecided)

		crashed := make([]bool, n)
		byzantine := make([]bool, n)
		for i := range crashed {
			crashed[i], byzantine[i] = inj.Inert(i), inj.Byzantine(i)
		}
		fr := consensus.CheckFaulty(layers, initials, crashed, byzantine)
		st := inj.Stats()
		// The combined MAC timeshares ack and progress slots, so its
		// fault-free ack latency sits around 50·f_ack; 64·f_ack clears the
		// fault-free envelope and counts only fault-induced misses. The
		// progress deadline is tighter (8·f_ack clears fault-free easily).
		dr := core.CheckDeadlines(rec.Events(), strong, fack*64, fack*8, eng.Slot())

		slot := float64(deadline)
		latest := int64(-1)
		for i, l := range layers {
			if crashed[i] || byzantine[i] {
				continue
			}
			if ok, _, s := l.Decided(); ok && s > latest {
				latest = s
			}
		}
		if fr.Undecided == 0 && latest >= 0 {
			slot = float64(latest)
		}
		decidedFrac := 0.0
		if fr.Correct > 0 {
			decidedFrac = float64(fr.Decided) / float64(fr.Correct)
		}
		return faultTrialResult{
			crashed:     st.Crashed,
			panics:      st.PanicCrashes,
			jamSlots:    st.JammedSlots,
			decidedFrac: decidedFrac,
			agree:       fr.AgreementBreaches,
			valid:       fr.ValidityBreaches,
			quorum:      fr.QuorumIntact,
			ackMiss:     dr.AckMisses,
			slot:        slot,
		}, nil
	})
	if err != nil {
		return table, err
	}

	for pi, fp := range points {
		var slots, decided []float64
		crashedSum, panicsSum, jamSum, agreeSum, validSum, ackSum := 0, 0, 0, 0, 0, 0
		quorumAll := true
		for _, r := range res[pi] {
			slots = append(slots, r.slot)
			decided = append(decided, r.decidedFrac)
			crashedSum += r.crashed
			panicsSum += r.panics
			jamSum += r.jamSlots
			agreeSum += r.agree
			validSum += r.valid
			ackSum += r.ackMiss
			if !r.quorum {
				quorumAll = false
			}
		}
		table.AddRow(
			fmt.Sprintf("%.2f", fp.crash), fp.jam, fmt.Sprintf("%.2f", fp.byz),
			crashedSum, panicsSum, jamSum,
			fmt.Sprintf("%.2f", stats.Mean(decided)), agreeSum, validSum,
			fmt.Sprintf("%v", quorumAll), ackSum, stats.Median(slots),
		)
	}
	clean := true
	for _, r := range res[0] {
		if r.decidedFrac != 1 || r.agree != 0 || r.valid != 0 {
			clean = false
		}
	}
	if clean {
		table.AddNote("zero-fault control point decided fully with no violations (fault layer off means off)")
	} else {
		table.AddNote("WARNING: zero-fault control point shows violations — fault layer is not inert")
	}
	return table, nil
}
