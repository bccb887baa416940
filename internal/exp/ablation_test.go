package exp

import (
	"fmt"
	"testing"

	"sinrmac/internal/approgress"
	"sinrmac/internal/rng"
	"sinrmac/internal/stats"
	"sinrmac/internal/topology"
)

// TestSimScaleAblation varies the Algorithm 9.1 constants p, QScale and
// TFactor one at a time around the two simulation-scale configurations,
// approgress.SimConfig and E3/E4's approgTestConfig, on E3's probe: a
// listener among 23 broadcasters in one cluster. Every variant runs on the
// same deployment, and the variants of a trial on the same engine seed.
// Each configuration's median first-rcv slot must stay within 2× of the
// best variant of every group; the table is logged.
func TestSimScaleAblation(t *testing.T) {
	const n, trials = 24, 5
	presets := []struct {
		name string
		cfg  func(lambda float64) approgress.Config
	}{
		{"approgress.SimConfig", func(lambda float64) approgress.Config { return approgress.SimConfig(lambda, 0.1, 3) }},
		{"approgTestConfig", approgTestConfig},
	}
	groups := []struct {
		name   string
		values []float64
		set    func(c *approgress.Config, v float64)
	}{
		{"p", []float64{0.05, 0.1, 0.25}, func(c *approgress.Config, v float64) { c.P = v }},
		{"QScale", []float64{0.25, 0.5, 1}, func(c *approgress.Config, v float64) { c.QScale = v }},
		{"TFactor", []float64{2, 3, 4, 8}, func(c *approgress.Config, v float64) { c.TFactor = v }},
	}
	// variants returns the preset (first) and then every group's values,
	// in order, each as one change to the preset.
	variants := func(base approgress.Config) []approgress.Config {
		out := []approgress.Config{base}
		for _, g := range groups {
			for _, v := range g.values {
				c := base
				g.set(&c, v)
				out = append(out, c)
			}
		}
		return out
	}

	type trialResult struct {
		lat   []float64
		epoch []int64
	}
	res, err := runTrials(Config{Seed: 1}, "sim-scale-ablation", 1, trials, func(tc *TrialContext) (trialResult, error) {
		d, err := tc.Deployment(func(src *rng.Source) (*topology.Deployment, error) {
			return buildClusterDeployment(n, src)
		})
		if err != nil {
			return trialResult{}, err
		}
		var r trialResult
		for _, p := range presets {
			for _, c := range variants(p.cfg(d.Lambda())) {
				lat, err := firstRcv(tc, c, n, func(i int) bool { return i > 0 }, 1000)
				if err != nil {
					return trialResult{}, err
				}
				r.lat = append(r.lat, lat)
				r.epoch = append(r.epoch, c.EpochLen())
			}
		}
		return r, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	table := Table{
		ID:      "sim-scale-ablation",
		Title:   fmt.Sprintf("first-rcv slot of a listener among %d cluster broadcasters, %d trials", n-1, trials),
		Columns: []string{"preset", "variant", "epoch_len", "median", "max"},
	}
	// lats returns variant v's first-rcv slots over the trials.
	lats := func(v int) []float64 {
		out := make([]float64, trials)
		for ti := range out {
			out[ti] = res[0][ti].lat[v]
		}
		return out
	}
	epoch := res[0][0].epoch
	v := 0
	for _, p := range presets {
		own := stats.Median(lats(v))
		table.AddRow(p.name, "preset", epoch[v], own, stats.Max(lats(v)))
		v++
		for _, g := range groups {
			best := own
			for _, val := range g.values {
				m := stats.Median(lats(v))
				table.AddRow(p.name, fmt.Sprintf("%s=%g", g.name, val), epoch[v], m, stats.Max(lats(v)))
				best = min(best, m)
				v++
			}
			if own > 2*best {
				t.Errorf("%s: median first rcv %.0f slots exceeds twice the best %s variant's %.0f", p.name, own, g.name, best)
			}
		}
	}
	t.Logf("\n%s", table.Format())
}
