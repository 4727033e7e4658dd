package main

import (
	"fmt"
	"math/rand"

	"zng/internal/experiments"
	"zng/internal/platform"
	"zng/internal/workload"
)

// grid is a campaign grid: platforms × scenarios × scales.
type grid struct {
	Platforms []string  `json:"platforms"`
	Scenarios []string  `json:"scenarios"`
	Scales    []float64 `json:"scales"`
}

// cells expands the grid, shuffled by rng so the closed loop's request
// order depends on the seed.
func (g grid) cells(rng *rand.Rand) []runCell {
	var out []runCell
	for _, p := range g.Platforms {
		for _, s := range g.Scenarios {
			for _, sc := range g.Scales {
				out = append(out, runCell{Platform: p, Mix: s, Scale: sc})
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// phase names a round's step.
type phase int

const (
	phaseSim phase = iota
	phaseCampaign
	phaseServe
)

// plan sizes the steps of one workload run.
type plan struct {
	name string
	// main is the step the workload exists for: rounds repeat until it
	// has had seconds, and at least rounds times.
	main    phase
	seconds float64
	rounds  int

	// In-process simulation: every cell once per pass, passes repeated
	// until simSeconds of the round have gone (at least one).
	sim        []simCell
	simSeconds float64
	// digests pins the default-seed EncodeResult digest of each sim
	// cell, keyed by simCell.String(); nil when the cells are checked
	// against zngd instead.
	digests map[string]string

	// Campaign, one cycle a round: cold on a fresh store, then
	// restarts and resumes.
	grid  grid
	order []runCell

	// Closed loop on the restarted daemon, per round.
	serveSeconds float64
}

// daemonKinds are the daemon grid's platforms: the DRAM
// reference, the paper's baseline and the proposal.
var daemonKinds = []platform.Kind{platform.GDDR5, platform.HybridGPU, platform.ZnG}

// figureKinds are the sim-figure platforms.
var figureKinds = []platform.Kind{platform.GDDR5, platform.Hetero, platform.HybridGPU, platform.ZnG}

// hotScenarios are the daemon grid's scenarios, on both workloads:
// registered names from every scenario family
// (paper pairs, solo, consolidation, stress, new generators) with
// distinct content, so no two alias one cell.
var hotScenarios = []string{
	"betw-back", "bfs1-gaus", "pr-gaus", "solo-bfs1", "consol-3", "read-stress", "write-stress", "oltp-bfs1",
}

// figureDigests are the SHA-256 digests of report.EncodeResult for the
// sim-figure cells at the default seed (Table I config, scale 2.0).
var figureDigests = map[string]string{
	"GDDR5/bfs1-gaus@2":     "d92fad703bf3f133df159cb2a456b42620a62fc769e0e41d7e625e4834d08b7e",
	"Hetero/bfs1-gaus@2":    "282971d40e816328e72f0c62d138ea1e36c0be0c628372249bf9155a62d5ae06",
	"HybridGPU/bfs1-gaus@2": "31991e5d7e0ed4edc5bd19b589c682269025210ab97f2ca367283f331312c309",
	"ZnG/bfs1-gaus@2":       "f242edcc3b2b6e8bfd7ea4af1f357d46ea412fa9d79d3b6cb321e9ce016693d1",
}

// inProcessScenario is the scenario of serve-hot's grid that it also
// simulates in process.
const inProcessScenario = "bfs1-gaus"

func workloadNames() []string { return []string{"sim-figure", "serve-hot"} }

// tinyScales draws the daemon grid's two trace scales from the seed:
// s in [0.0450, 0.0468] and 2s. Seeds name cells of their own, while a
// cell's cost moves by under 5% across seeds.
func tinyScales(rng *rand.Rand) []float64 {
	s := 450 + 2*rng.Intn(10)
	return []float64{float64(s) / 10000, float64(2*s) / 10000}
}

// names lists platform names in the order given.
func names(kinds []platform.Kind) []string {
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = k.String()
	}
	return out
}

// seedOffset maps a workload seed to the offset added to every trace
// seed: 0 for the default seed, a well-mixed value otherwise.
func seedOffset(seed int64) int64 {
	return int64(uint64(seed-defaultSeed) * 0x9E3779B97F4A7C15)
}

func planFor(name string, seed int64, seconds float64) (plan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := plan{name: name, seconds: seconds}
	switch name {
	case "sim-figure":
		mix, err := workload.MixByName("bfs1-gaus")
		if err != nil {
			return plan{}, err
		}
		for _, k := range figureKinds {
			c, err := newSimCell(k, mix, experiments.DefaultScale, seedOffset(seed))
			if err != nil {
				return plan{}, err
			}
			p.sim = append(p.sim, c)
		}
		p.main = phaseSim
		if seed == defaultSeed {
			p.digests = figureDigests
		}
		// A pass over the four figure cells takes about 8 s, so three
		// rounds already give the simulation over 20 s.
		p.rounds = 3
		p.grid = grid{names(daemonKinds), hotScenarios, tinyScales(rng)}
		p.serveSeconds = 4
	case "serve-hot":
		p.grid = grid{names(daemonKinds), hotScenarios, tinyScales(rng)}
		p.main = phaseServe
		p.rounds = 5
		p.serveSeconds = seconds / float64(p.rounds)
		p.simSeconds = 2
	default:
		return plan{}, fmt.Errorf("unknown workload %q (valid: %v)", name, workloadNames())
	}
	// The campaign keeps the grid's canonical order, so a seed cannot
	// move its makespan by where the costly cells fall; the seed orders
	// the requests.
	p.order = p.grid.cells(rng)
	if p.sim == nil {
		// serve-hot simulates one scenario of its grid in
		// process on the figure platforms at both scales, and check the
		// bytes of the cells zngd also serves against it.
		mix, err := workload.MixByName(inProcessScenario)
		if err != nil {
			return plan{}, err
		}
		for _, k := range figureKinds {
			for _, sc := range p.grid.Scales {
				c, err := newSimCell(k, mix, sc, 0)
				if err != nil {
					return plan{}, err
				}
				p.sim = append(p.sim, c)
			}
		}
	}
	return p, nil
}
