package analysis

import (
	"fmt"
	"io"
	"time"

	"repro/internal/passive"
	"repro/internal/rss"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Traffic wraps the passive models into the paper's figures: normalized
// b.root traffic around the change (Fig. 7 ISP, Fig. 9 IXP), the
// clients-per-day priming signal (Fig. 8), the all-letters shares (Figs. 12
// and 13), and the §6 in-family shift ratios.
type Traffic struct {
	ISP   *passive.Model
	IXPEU *passive.Model
	IXPNA *passive.Model
	// IXPs is the disaggregated 14-exchange platform behind the regional
	// aggregates.
	IXPs *passive.MultiIXP
}

// NewTraffic builds the passive vantages at the given population size.
func NewTraffic(clients int, seed int64) *Traffic {
	return &Traffic{
		ISP:   passive.NewModel(passive.ISPConfig(clients, seed)),
		IXPEU: passive.NewModel(passive.IXPConfigEU(clients, seed+1)),
		IXPNA: passive.NewModel(passive.IXPConfigNA(clients, seed+2)),
		IXPs:  passive.NewMultiIXP(clients/8, seed+3),
	}
}

// normSeries computes each target's share of the window's total b.root
// traffic.
func normSeries(m *passive.Model, start, end time.Time) map[string]float64 {
	series := m.TrafficSeries(start, end, passive.BTargets())
	var total float64
	for _, s := range series {
		total += s.Total()
	}
	out := make(map[string]float64, len(series))
	for _, s := range series {
		label := "V4"
		if s.Target.Family == topology.IPv6 {
			label = "V6"
		}
		if s.Target.Old {
			label += "old"
		} else {
			label += "new"
		}
		if total > 0 {
			out[label] = s.Total() / total
		}
	}
	return out
}

// WriteFigure7 renders the ISP's normalized b.root traffic for the paper's
// three windows (the day before the change, four weeks after, and the April
// check-in).
func (t *Traffic) WriteFigure7(w io.Writer) {
	fmt.Fprintln(w, "Figure 7: ISP traffic to b.root before/after the change (share of b.root traffic)")
	windows := []struct {
		label      string
		start, end time.Time
	}{
		{"2023-10-08 (pre)", passive.ISPPreDay, passive.ISPPreDay.Add(24 * time.Hour)},
		{"2024-02-05..03-04", passive.ISPWindow2[0], passive.ISPWindow2[1]},
		{"2024-04-22..04-29", passive.ISPWindow3[0], passive.ISPWindow3[1]},
	}
	for _, win := range windows {
		shares := normSeries(t.ISP, win.start, win.end)
		fmt.Fprintf(w, "%-20s V4new=%.3f V4old=%.3f V6new=%.3f V6old=%.3f\n",
			win.label, shares["V4new"], shares["V4old"], shares["V6new"], shares["V6old"])
	}
	fmt.Fprintf(w, "in-family shift (2024-02): v4=%.1f%% v6=%.1f%%\n",
		t.ISP.ShiftRatio(topology.IPv4, passive.ISPWindow2[0], passive.ISPWindow2[1])*100,
		t.ISP.ShiftRatio(topology.IPv6, passive.ISPWindow2[0], passive.ISPWindow2[1])*100)
}

// Figure8Stats summarizes per-client daily activity for one target.
type Figure8Stats struct {
	Label        string
	Clients      int
	MedianFlows  float64
	OnceADayFrac float64
}

// Figure8 computes the clients-per-day activity distributions for the six
// targets of Fig. 8 in one family.
func (t *Traffic) Figure8(f topology.Family, day time.Time) []Figure8Stats {
	targets := []struct {
		label string
		tgt   passive.Target
	}{
		{"a.root", passive.Target{Letter: "a", Family: f}},
		{"b.root (new)", passive.Target{Letter: "b", Family: f}},
		{"b.root (old)", passive.Target{Letter: "b", Family: f, Old: true}},
		{"c.root", passive.Target{Letter: "c", Family: f}},
		{"d.root", passive.Target{Letter: "d", Family: f}},
		{"e.root", passive.Target{Letter: "e", Family: f}},
	}
	out := make([]Figure8Stats, 0, len(targets))
	for _, sel := range targets {
		act := t.ISP.ClientDayActivity(sel.tgt, day)
		once := 0
		for _, a := range act {
			if a <= 1.5 {
				once++
			}
		}
		st := Figure8Stats{Label: sel.label, Clients: len(act)}
		if len(act) > 0 {
			st.MedianFlows = stats.Median(act)
			st.OnceADayFrac = float64(once) / float64(len(act))
		}
		out = append(out, st)
	}
	return out
}

// WriteFigure8 renders the Fig. 8 signal: the old b.root IPv6 prefix is
// contacted about once a day by most of its remaining clients (priming).
func (t *Traffic) WriteFigure8(w io.Writer) {
	fmt.Fprintln(w, "Figure 8: ISP mean unique client subnets per day vs flows per client")
	day := passive.ISPWindow2[0]
	for _, f := range topology.Families() {
		fmt.Fprintf(w, "-- %s --\n", f)
		fmt.Fprintln(w, "target         clients  median-flows/day  once-a-day-frac")
		for _, st := range t.Figure8(f, day) {
			fmt.Fprintf(w, "%-14s %7d  %16.1f  %15.2f\n",
				st.Label, st.Clients, st.MedianFlows, st.OnceADayFrac)
		}
	}
}

// WriteFigure9 renders the IXP IPv6 b.root adoption per region, and the
// per-exchange adoption table behind it.
func (t *Traffic) WriteFigure9(w io.Writer) {
	fmt.Fprintln(w, "Figure 9: IXP IPv6 traffic to b.root (share on new prefix after change)")
	start := passive.BRootChange.Add(72 * time.Hour)
	end := passive.IXPWindow1[1]
	for _, sel := range []struct {
		label string
		m     *passive.Model
	}{
		{"North America", t.IXPNA},
		{"Europe", t.IXPEU},
	} {
		shift := sel.m.ShiftRatio(topology.IPv6, start, end)
		fmt.Fprintf(w, "%-14s v6 shifted to new prefix: %.1f%%\n", sel.label, shift*100)
	}
	fmt.Fprintln(w)
	t.IXPs.WriteDetail(w, topology.IPv6, start, end)
}

// WriteFigure12 renders the ISP all-letters traffic shares (Fig. 12),
// including b.root's share before and after the change and the a.root dip.
func (t *Traffic) WriteFigure12(w io.Writer) {
	fmt.Fprintln(w, "Figure 12: ISP traffic to all roots (letter shares)")
	windows := []struct {
		label      string
		start, end time.Time
	}{
		{"2023-10-07/08 (pre)", passive.ISPPreDay, passive.ISPPreDay.Add(24 * time.Hour)},
		{"2024-02 window", passive.ISPWindow2[0], passive.ISPWindow2[0].Add(7 * 24 * time.Hour)},
	}
	for _, win := range windows {
		shares := t.letterShares(t.ISP, win.start, win.end)
		fmt.Fprintf(w, "%-20s", win.label)
		for _, l := range rss.Letters() {
			fmt.Fprintf(w, " %s=%.3f", l, shares[l])
		}
		fmt.Fprintln(w)
	}
	// The a.root dip day.
	dipShares := t.letterShares(t.ISP, passive.ARootDipDay, passive.ARootDipDay.Add(24*time.Hour))
	fmt.Fprintf(w, "a.root share on 2024-02-26 (dip day): %.3f\n", dipShares["a"])
}

// WriteFigure13 renders the IXP letter shares (k and d dominate).
func (t *Traffic) WriteFigure13(w io.Writer) {
	fmt.Fprintln(w, "Figure 13: IXP traffic to all roots (letter shares)")
	start := passive.IXPWindow1[0]
	shares := t.letterShares(t.IXPEU, start, start.Add(7*24*time.Hour))
	fmt.Fprint(w, "EU IXPs:")
	for _, l := range rss.Letters() {
		fmt.Fprintf(w, " %s=%.3f", l, shares[l])
	}
	fmt.Fprintln(w)
}

// letterShares sums traffic per letter (old+new, both families) and
// normalizes to shares.
func (t *Traffic) letterShares(m *passive.Model, start, end time.Time) map[rss.Letter]float64 {
	targets := passive.AllLetterTargets()
	targets = append(targets, passive.Target{Letter: "b", Family: topology.IPv4, Old: true},
		passive.Target{Letter: "b", Family: topology.IPv6, Old: true})
	series := m.TrafficSeries(start, end, targets)
	sums := make(map[rss.Letter]float64)
	var total float64
	for _, s := range series {
		sums[s.Target.Letter] += s.Total()
		total += s.Total()
	}
	if total > 0 {
		for l := range sums {
			sums[l] /= total
		}
	}
	return sums
}
