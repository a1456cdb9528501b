package analysis

import (
	"fmt"
	"io"
	"time"

	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/passive"
	"repro/internal/rss"
	"repro/internal/vantage"
	"repro/internal/zonemd"
)

// Suite is the six accumulators a campaign or a replay feeds, over the world
// they were built for: what every artefact of Artefacts renders from.
type Suite struct {
	Coverage   *Coverage
	Stability  *Stability
	Colocation *Colocation
	Distance   *Distance
	RTT        *RTT
	Integrity  *Integrity
	// Traffic holds the passive ISP/IXP models. NewSuite leaves it nil: a
	// replay has none, and renders no artefact that reads them.
	Traffic *Traffic

	pop *vantage.Population
}

// NewSuite builds the six accumulators for a world's system and population.
func NewSuite(sys *rss.System, pop *vantage.Population) *Suite {
	return &Suite{
		Coverage:   NewCoverage(sys),
		Stability:  NewStability(),
		Colocation: NewColocation(pop),
		Distance:   NewDistance(sys, pop),
		RTT:        NewRTT(),
		Integrity:  NewIntegrity(),
		pop:        pop,
	}
}

// Handlers returns the six accumulators in delivery order. A replay
// checkpoint seals them in this order, so it is part of the sidecar format.
func (s *Suite) Handlers() []measure.Handler {
	return []measure.Handler{s.Coverage, s.Stability, s.Colocation, s.Distance, s.RTT, s.Integrity}
}

// Reads says what an artefact's writer reads: the world alone (its
// population and the study timeline), the six accumulators a campaign or a
// replay feeds, or the passive models (Suite.Traffic).
type Reads uint8

const (
	World Reads = iota
	Active
	Passive
)

// Artefact is one table, figure or section of the paper that the
// reproduction renders.
type Artefact struct {
	// ID is the paper reference DESIGN.md §4 indexes it by.
	ID    string
	Reads Reads
	Write func(*Suite, io.Writer)
}

// Artefacts lists every artefact in report order: rootstudy's report,
// rootanalyze (all but the Passive ones) and the root BenchmarkArtefacts
// render from it, and DESIGN.md §4 indexes it.
var Artefacts = []Artefact{
	{"T3", World, func(s *Suite, w io.Writer) { writeTable3(w, s.pop) }},
	{"F2", World, func(_ *Suite, w io.Writer) { writeFigure2(w) }},
	{"T1", Active, func(s *Suite, w io.Writer) { s.Coverage.WriteTable1(w) }},
	{"T4", Active, func(s *Suite, w io.Writer) { s.Coverage.WriteTable4(w) }},
	{"F11", Active, func(s *Suite, w io.Writer) { s.Coverage.Figure11(w) }},
	{"S4.2", Active, func(s *Suite, w io.Writer) { s.Coverage.WriteValidation(w) }},
	{"F3", Active, func(s *Suite, w io.Writer) { s.Stability.WriteFigure3(w) }},
	{"F4", Active, func(s *Suite, w io.Writer) { s.Colocation.WriteFigure4(w) }},
	{"F5", Active, func(s *Suite, w io.Writer) { s.Distance.WriteFigure5(w) }},
	{"F6", Active, func(s *Suite, w io.Writer) { s.RTT.WriteFigure6(w) }},
	{"F14", Active, func(s *Suite, w io.Writer) { s.RTT.WriteFigure14(w) }},
	{"S6-carrier", Active, func(s *Suite, w io.Writer) { s.RTT.WriteCarrierEffects(w) }},
	{"S6-rtt", Active, func(s *Suite, w io.Writer) { s.RTT.WriteSection6Callouts(w) }},
	{"F7", Passive, func(s *Suite, w io.Writer) { s.Traffic.WriteFigure7(w) }},
	{"F8", Passive, func(s *Suite, w io.Writer) { s.Traffic.WriteFigure8(w) }},
	{"F9", Passive, func(s *Suite, w io.Writer) { s.Traffic.WriteFigure9(w) }},
	{"F12", Passive, func(s *Suite, w io.Writer) { s.Traffic.WriteFigure12(w) }},
	{"F13", Passive, func(s *Suite, w io.Writer) { s.Traffic.WriteFigure13(w) }},
	{"T2", Active, func(s *Suite, w io.Writer) { s.Integrity.WriteTable2(w) }},
	{"F10", Active, func(s *Suite, w io.Writer) { s.Integrity.WriteFigure10(w) }},
	{"AppB", World, func(s *Suite, w io.Writer) { measure.ComputeLoad(len(s.pop.VPs), measure.StudyStart).Write(w) }},
}

// writeTable3 renders the VP distribution per region (paper's Table 3).
func writeTable3(w io.Writer, pop *vantage.Population) {
	fmt.Fprintln(w, "Table 3: distribution of vantage points per region")
	fmt.Fprintln(w, "Region          #VPs  #Countries  #Networks")
	byRegion := pop.ByRegion()
	for _, region := range geo.Regions() {
		in := vantage.Population{VPs: byRegion[region]}
		fmt.Fprintf(w, "%-15s %4d  %10d  %9d\n", region, len(in.VPs), in.Countries(), in.Networks())
	}
}

// writeFigure2 renders the measurement timeline: the rounds the paper's
// full-fidelity schedule takes, and the events it is cut around.
func writeFigure2(w io.Writer) {
	ticks := measure.Ticks(measure.StudyStart, measure.StudyEnd, 1)
	fast := 0
	for _, t := range ticks {
		if measure.BaseInterval(t.Time) == 15*time.Minute {
			fast++
		}
	}
	fmt.Fprintf(w, "Figure 2: %d measurement rounds (%d at 15-min cadence); ", len(ticks), fast)
	fmt.Fprintf(w, "ZONEMD placeholder %s, verifiable %s, b.root change %s\n",
		zonemd.PlaceholderDate.Format("2006-01-02"),
		zonemd.VerifiableDate.Format("2006-01-02"),
		passive.BRootChange.Format("2006-01-02"))
}
