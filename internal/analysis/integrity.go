package analysis

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"repro/internal/dnssec"
	"repro/internal/faults"
	"repro/internal/measure"
	"repro/internal/rss"
	"repro/internal/topology"
)

// Integrity builds the Table 2 taxonomy from transfer events: validation
// failures grouped by reason and VP, with the affected servers, distinct
// SOAs, first/last observation, and observation counts. It also retains one
// rendered bitflip example for Fig. 10.
type Integrity struct {
	rows map[integrityKey]*IntegrityRow
	// flip is the first observed bitflip rendering (Fig. 10).
	flip *faults.Bitflip
	// totals
	Transfers int
	Failures  int
}

type integrityKey struct {
	Reason string
	VP     int
}

// IntegrityRow is one Table 2 row.
type IntegrityRow struct {
	Reason   string
	VPID     string
	VPIdx    int
	SOAs     map[uint32]bool
	Servers  map[string]bool
	FirstObs time.Time
	LastObs  time.Time
	Obs      int
}

// NewIntegrity creates the accumulator.
func NewIntegrity() *Integrity {
	return &Integrity{rows: make(map[integrityKey]*IntegrityRow)}
}

// HandleProbe implements measure.Handler.
//
//rootlint:hotpath
func (i *Integrity) HandleProbe(measure.ProbeEvent) {}

// HandleTransfer implements measure.Handler.
//
//rootlint:hotpath
func (i *Integrity) HandleTransfer(e measure.TransferEvent) {
	if e.Lost {
		return
	}
	i.Transfers++
	reason := classify(e)
	if reason == "" {
		return
	}
	i.Failures++
	if e.Bitflip != nil && i.flip == nil {
		i.flip = e.Bitflip
	}
	k := integrityKey{reason, e.VPIdx}
	row := i.rows[k]
	if row == nil {
		row = &IntegrityRow{
			Reason: reason, VPID: e.VP.ID, VPIdx: e.VPIdx,
			//rootlint:allow hotpath: once per (reason, VP) among failed transfers, a few dozen rows a campaign
			SOAs: make(map[uint32]bool), Servers: make(map[string]bool),
			FirstObs: e.Tick.Time,
		}
		i.rows[k] = row
	}
	row.SOAs[e.Serial] = true
	row.Servers[serverLabel(e.Target)] = true
	if e.Tick.Time.Before(row.FirstObs) {
		row.FirstObs = e.Tick.Time
	}
	if e.Tick.Time.After(row.LastObs) {
		row.LastObs = e.Tick.Time
	}
	row.Obs++
}

// classify maps a transfer outcome to the Table 2 reason string.
func classify(e measure.TransferEvent) string {
	switch {
	case errors.Is(e.DNSSECErr, dnssec.ErrSignatureNotIncepted):
		return "Sig. not incepted"
	case errors.Is(e.DNSSECErr, dnssec.ErrSignatureExpired):
		return "Signature expired"
	case e.DNSSECErr != nil || e.ZonemdErr != nil:
		return "Bogus Signature"
	case e.ComparisonMismatch:
		return "Reference mismatch"
	}
	return ""
}

func serverLabel(t rss.ServiceAddr) string {
	fam := "v4"
	if t.Family == topology.IPv6 {
		fam = "v6"
	}
	if t.Old {
		return fmt.Sprintf("%s(old %s)", t.Letter, fam)
	}
	return fmt.Sprintf("%s(%s)", t.Letter, fam)
}

// Rows returns the taxonomy rows sorted by reason then VP.
func (i *Integrity) Rows() []*IntegrityRow {
	out := make([]*IntegrityRow, 0, len(i.rows))
	for _, r := range i.rows {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b *IntegrityRow) int {
		return cmp.Or(strings.Compare(a.Reason, b.Reason), cmp.Compare(a.VPIdx, b.VPIdx))
	})
	return out
}

// Bitflip returns the retained Fig. 10 example, if any.
func (i *Integrity) Bitflip() (faults.Bitflip, bool) {
	if i.flip == nil {
		return faults.Bitflip{}, false
	}
	return *i.flip, true
}

// WriteTable2 renders the validation-error taxonomy like the paper's
// Table 2.
func (i *Integrity) WriteTable2(w io.Writer) {
	fmt.Fprintln(w, "Table 2: zone validation errors from AXFRs")
	fmt.Fprintf(w, "(%d transfers checked, %d failures)\n", i.Transfers, i.Failures)
	fmt.Fprintln(w, "Reason              #SOA  First Obs         Last Obs          #Obs  Servers            VP")
	for _, r := range i.Rows() {
		servers := make([]string, 0, len(r.Servers))
		for s := range r.Servers {
			servers = append(servers, s)
		}
		slices.Sort(servers)
		label := servers[0]
		if len(servers) > 10 {
			label = "all"
		} else if len(servers) > 1 {
			label = fmt.Sprintf("%s(+%d)", servers[0], len(servers)-1)
		}
		fmt.Fprintf(w, "%-19s %4d  %-16s  %-16s  %4d  %-18s %s\n",
			r.Reason, len(r.SOAs),
			r.FirstObs.Format("06-01-02 15:04"), r.LastObs.Format("06-01-02 15:04"),
			r.Obs, label, r.VPID)
	}
}

// WriteFigure10 renders the retained bitflip example like the paper's
// Fig. 10 (the record before and after the flip).
func (i *Integrity) WriteFigure10(w io.Writer) {
	fmt.Fprintln(w, "Figure 10: bitflip in a zone received via AXFR")
	flip, ok := i.Bitflip()
	if !ok {
		fmt.Fprintln(w, "(no bitflip captured in this run)")
		return
	}
	fmt.Fprintf(w, "received: %s\n", flip.After)
	fmt.Fprintf(w, "expected: %s\n", flip.Before)
}
