// Package core orchestrates the full study: it builds the simulated world
// (topology, root server system, vantage points, signed root zone), runs the
// NLNOG-DNS-1-style active campaign with every analysis attached, runs the
// passive ISP/IXP models, and bundles the results into a Report that can
// render every table and figure of the paper.
package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/analysis"
	"repro/internal/measure"
	"repro/internal/topology"
	"repro/internal/vantage"
)

// Run describes a run: the values that shape recorded bytes. rootmeasure
// writes it as the first frame of a recording (dataset.Writer.Describe), and
// rootanalyze and rootmeasure -resume build the world from what they read
// there, so no one types these twice.
type Run struct {
	// Seed drives every stochastic component.
	Seed int64 `json:"seed"`
	// VPScale divides the 675-VP population.
	VPScale int `json:"vpscale"`
	// TLDCount sizes the synthesized root zone.
	TLDCount int `json:"tlds"`
	// Scale thins the measurement schedule (1 = the paper's 30/15-minute
	// cadence; the default keeps runtime in benchmark range).
	Scale int `json:"scale"`
	// Start and End bound the campaign; zero values take the paper's dates.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// CheckpointEvery is the checkpoint cadence in ticks (0 = 32): a
	// checkpoint also seals a dataset block.
	CheckpointEvery int `json:"checkpoint_every"`
}

// Config parameterizes a study run.
type Config struct {
	Run
	// PassiveClients sizes each passive vantage's resolver population.
	PassiveClients int
	// Workers bounds the campaign worker pool (0 = one per CPU, 1 = serial).
	// Reports are byte-identical across worker counts for the same seed.
	Workers int
	// ErrorBudget bounds supervisor-salvaged degraded outcomes before the
	// campaign aborts: n >= 0 tolerates n, negative is unlimited.
	ErrorBudget int
}

// DefaultConfig runs the full VP population on a heavily thinned schedule —
// the shape-preserving configuration the benchmarks use.
func DefaultConfig() Config {
	return Config{
		Run:            Run{Seed: 1, Scale: 96, VPScale: 1, TLDCount: 80, Start: measure.StudyStart, End: measure.StudyEnd},
		PassiveClients: 2000,
	}
}

// QuickConfig is a fast smoke-test configuration.
func QuickConfig() Config {
	return Config{
		Run:            Run{Seed: 1, Scale: 512, VPScale: 10, TLDCount: 20},
		PassiveClients: 500,
	}
}

// Study is a configured, runnable reproduction.
type Study struct {
	// Cfg is the configuration NewStudy was given, floors applied; it is
	// read-only afterwards (Run runs mCfg).
	Cfg   Config
	World *measure.World
	// mCfg is Cfg expanded into the campaign's configuration, once: the
	// world is built from it and Run runs it.
	mCfg measure.Config

	// Suite holds the six accumulators Run feeds, and the passive models.
	*analysis.Suite

	// WireQueries and WireFailures report the campaign's built-in
	// end-to-end self-check (the Appendix-F battery run through a real
	// server once per measurement round).
	WireQueries  int
	WireFailures []string
}

// NewWorld expands a run description into the campaign's configuration and
// builds the world it names: the one place a seed, a VP divisor and a zone
// size become a topology, a population and a signed root. Zero Start and End
// take the paper's dates; Scale and VPScale below 1 mean 1.
func NewWorld(cfg Config) (measure.Config, *measure.World, error) {
	mCfg := measure.DefaultConfig()
	mCfg.Seed, mCfg.Scale, mCfg.TLDCount = cfg.Seed, cfg.Scale, cfg.TLDCount
	mCfg.Start, mCfg.End, mCfg.CheckpointEvery = cfg.Start, cfg.End, cfg.CheckpointEvery
	mCfg.Workers, mCfg.ErrorBudget = cfg.Workers, cfg.ErrorBudget
	topoCfg := topology.DefaultConfig()
	topoCfg.Seed = cfg.Seed
	vpCfg := vantage.DefaultConfig()
	vpCfg.Seed, vpCfg.Scale = cfg.Seed, cfg.VPScale
	w, err := measure.NewWorld(mCfg, topoCfg, vpCfg)
	if err != nil {
		return mCfg, nil, fmt.Errorf("core: building world: %w", err)
	}
	return mCfg, w, nil
}

// NewStudy builds the world and wires all analyses.
func NewStudy(cfg Config) (*Study, error) {
	cfg.Scale, cfg.VPScale = max(cfg.Scale, 1), max(cfg.VPScale, 1)
	mCfg, w, err := NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	mCfg.WireCheck = true
	suite := analysis.NewSuite(w.System, w.Population)
	suite.Traffic = analysis.NewTraffic(cfg.PassiveClients, cfg.Seed)
	return &Study{Cfg: cfg, World: w, mCfg: mCfg, Suite: suite}, nil
}

// Run executes the active campaign (streaming into all analyses); the
// passive models are computed lazily by their figure writers.
func (s *Study) Run() error {
	campaign := measure.NewCampaign(s.mCfg, s.World)
	err := campaign.Run(s.Handlers()...)
	s.WireQueries = campaign.WireQueries
	s.WireFailures = campaign.WireFailures
	if err == nil && len(s.WireFailures) > 0 {
		return fmt.Errorf("core: %d wire-check failures (first: %s)",
			len(s.WireFailures), s.WireFailures[0])
	}
	return err
}

// WriteReport renders a header and then every entry of analysis.Artefacts.
func (s *Study) WriteReport(w io.Writer) {
	fmt.Fprintln(w, "== The Roots Go Deep: reproduction report ==")
	fmt.Fprintf(w, "seed=%d scale=%d vps=%d networks=%d countries=%d\n",
		s.Cfg.Seed, s.Cfg.Scale, len(s.World.Population.VPs),
		s.World.Population.Networks(), s.World.Population.Countries())
	fmt.Fprintf(w, "wire self-check: %d queries, %d failures\n",
		s.WireQueries, len(s.WireFailures))
	for _, a := range analysis.Artefacts {
		fmt.Fprintln(w)
		a.Write(s.Suite, w)
	}
}
