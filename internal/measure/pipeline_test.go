package measure

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/faults"
	"repro/internal/rss"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/zonemd"
)

// Pins for the pipelined engine (pool.go): what a tick computed ahead of its
// delivery may leave behind when the run ends early (nothing), and what the
// caches may forget (only what is never asked for again).

// pairsPerTick is how many probe-stage failpoint evaluations one tick makes.
func pairsPerTick(w *World) int { return len(w.Population.VPs) * len(rss.AllServiceAddrs()) }

// runAborting runs the fault-rich window with the given failpoint plan armed
// and returns the campaign, what its handler received and Run's error.
func runAborting(t *testing.T, w *World, workers, budget int, spec string) (*Campaign, *collector, error) {
	t.Helper()
	cfg := faultRichConfig(workers)
	cfg.ErrorBudget = budget
	if err := failpoint.Enable(spec); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable()
	c, col := NewCampaign(cfg, w), &collector{}
	err := c.Run(col)
	return c, col, err
}

// TestBudgetAbortDeliversTheSameTicks: a degraded outcome in the third tick
// with a budget of zero ends the run after exactly three delivered ticks at
// any worker count. With four workers the fourth tick has been computed by
// then, failpoint evaluations and wire check included; none of it may show
// in the events, in Degraded() or in the wire accumulator.
func TestBudgetAbortDeliversTheSameTicks(t *testing.T) {
	w := testWorld(t)
	spec := "measure/worker/probe=error@" + strconv.Itoa(2*pairsPerTick(w)+100)
	sc, serial, serr := runAborting(t, w, 1, 0, spec)
	pc, parallel, perr := runAborting(t, w, 4, 0, spec)

	for _, err := range []error{serr, perr} {
		if err == nil || !strings.Contains(err.Error(), "error budget exceeded: 1 degraded outcomes > budget 0") {
			t.Fatalf("run error = %v, want the budget abort after one outcome", err)
		}
	}
	if want := 3 * pairsPerTick(w); len(serial.probes) != want || len(parallel.probes) != want ||
		len(serial.transfers) != want || len(parallel.transfers) != want {
		t.Fatalf("delivered %d/%d probes and %d/%d transfers (1/4 workers), want %d of each: three whole ticks",
			len(serial.probes), len(parallel.probes), len(serial.transfers), len(parallel.transfers), want)
	}
	// Which pair of the third tick drew the failpoint's hit depends on the
	// workers' interleaving; everything else is the same event.
	degraded := [2]int{}
	for i := range serial.probes {
		a, b := serial.probes[i], parallel.probes[i]
		for run, e := range []ProbeEvent{a, b} {
			if e.Degraded {
				degraded[run]++
				if e.Tick.Index != 2 {
					t.Errorf("degraded probe in tick %d, want tick 2", e.Tick.Index)
				}
			}
		}
		if !a.Degraded && !b.Degraded && !reflect.DeepEqual(a, b) {
			t.Fatalf("probe %d differs:\nserial:   %+v\nparallel: %+v", i, a, b)
		}
	}
	if degraded != [2]int{1, 1} {
		t.Errorf("degraded probes = %v (1/4 workers), want one each", degraded)
	}
	for i := range serial.transfers {
		a, b := serial.transfers[i], parallel.transfers[i]
		if a.Degraded || b.Degraded {
			continue
		}
		if errString(a.ZonemdErr) != errString(b.ZonemdErr) || errString(a.DNSSECErr) != errString(b.DNSSECErr) {
			t.Fatalf("transfer %d validation differs", i)
		}
		a.ZonemdErr, a.DNSSECErr, b.ZonemdErr, b.DNSSECErr = nil, nil, nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("transfer %d differs:\nserial:   %+v\nparallel: %+v", i, a, b)
		}
	}
	sd, pd := sc.Degraded(), pc.Degraded()
	if len(sd.Samples) != 1 || len(pd.Samples) != 1 {
		t.Fatalf("degraded samples = %v and %v, want one each", sd.Samples, pd.Samples)
	}
	sd.Samples, pd.Samples = nil, nil
	if want := (DegradedStats{ProbeErrors: 1}); !reflect.DeepEqual(sd, want) || !reflect.DeepEqual(pd, want) {
		t.Errorf("Degraded() = %+v and %+v (1/4 workers), want %+v", sd, pd, want)
	}
	if sc.WireQueries != pc.WireQueries || sc.WireQueries != 3*QueriesPerTarget {
		t.Errorf("wire accumulator = %d and %d (1/4 workers), want three ticks' %d", sc.WireQueries, pc.WireQueries, 3*QueriesPerTarget)
	}
}

// computing counts the goroutines that are inside the campaign's per-tick
// computation right now.
func computing() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "measure.(*Campaign).produce") {
			n++
		}
	}
	return n
}

// TestRunJoinsItsProducer: when Run returns early — killed at a tick, or
// aborted over the budget — the tick computed ahead is not still being
// computed, and nothing counts into the stream registry behind the caller's
// back. A resume restores that registry from the sidecar next, and a
// straggler would count into the restored totals.
func TestRunJoinsItsProducer(t *testing.T) {
	w := testWorld(t)
	cases := []struct {
		name, spec string
		budget     int
		want       func(error) bool
	}{
		{"killed", "campaign/tick=kill@3", -1, func(err error) bool { return errors.Is(err, failpoint.ErrKilled) }},
		{"aborted", "measure/worker/probe=error@" + strconv.Itoa(pairsPerTick(w)+5), 0, func(err error) bool {
			return err != nil && strings.Contains(err.Error(), "error budget exceeded")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := runAborting(t, w, 4, tc.budget, tc.spec)
			if n := computing(); n != 0 {
				t.Errorf("%d goroutines still computing a tick after Run returned", n)
			}
			before, serr := telemetry.StreamState{}.CheckpointSeal()
			if serr != nil {
				t.Fatal(serr)
			}
			if !tc.want(err) {
				t.Fatalf("run error = %v", err)
			}
			for i := 0; i < 1000; i++ {
				runtime.Gosched()
			}
			after, serr := telemetry.StreamState{}.CheckpointSeal()
			if serr != nil {
				t.Fatal(serr)
			}
			if !bytes.Equal(before, after) {
				t.Errorf("stream counters moved after Run returned:\nat return: %s\nlater:     %s", before, after)
			}
		})
	}
}

// TestCachesForgetOnlyTheUnaskedFor: over a window of four zone serials with
// a skewed VP, a stale site and a bitflip in it, the zone and validation
// caches end holding the last serials only, and each distinct key the run
// asked for was built exactly once — a forgotten entry that was asked for
// again would have been built, and counted as a miss, twice. The expected
// keys are read off the delivered events.
func TestCachesForgetOnlyTheUnaskedFor(t *testing.T) {
	w := testWorld(t)
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Start = time.Date(2023, 10, 2, 10, 0, 0, 0, time.UTC)
		cfg.End = cfg.Start.Add(28 * time.Hour)
		cfg.Scale, cfg.TLDCount = 4, 15
		cfg.Workers, cfg.WireCheck = workers, true
		c, col := NewCampaign(cfg, w), &collector{}
		// Some VP reaches this d.root site, so the plan's stale window (moved
		// into this run) is seen.
		route, ok := bestRoute(w.Catchments["d"][topology.IPv4], w.Population.VPs[0].ASN)
		if !ok {
			t.Skip("first VP unroutable to d.root")
		}
		c.Plan.Stales[0].SiteIDs = []string{route.Origin.SiteID}
		c.Plan.Stales[0].Start, c.Plan.Stales[0].End = cfg.Start.Add(6*time.Hour), cfg.Start.Add(8*time.Hour)

		zoneMisses, valMisses := mZoneMisses.Value(), mValMisses.Value()
		if err := c.Run(col); err != nil {
			t.Fatal(err)
		}
		zoneMisses, valMisses = mZoneMisses.Value()-zoneMisses, mValMisses.Value()-valMisses

		zones, vals, serials := map[zoneKey]bool{}, map[valKey]bool{}, map[uint32]bool{}
		for _, tick := range Ticks(cfg.Start, cfg.End, cfg.Scale) {
			zones[zoneKey{SerialAt(tick.Time), zonemd.StateAt(tick.Time), false}] = true
			serials[SerialAt(tick.Time)] = true
		}
		kinds := map[faults.Kind]bool{}
		for _, te := range col.transfers {
			if te.Lost || te.Fault == faults.None {
				continue
			}
			kinds[te.Fault] = true
			state := zonemd.StateAt(te.Tick.Time)
			zones[zoneKey{te.Serial, state, te.Fault == faults.StaleZone}] = true
			if te.Bitflip == nil {
				vals[valKey{te.Serial, state, te.Fault, te.Fault == faults.ClockSkew}] = true
			}
		}
		if len(serials) < 4 || !kinds[faults.ClockSkew] || !kinds[faults.StaleZone] || !kinds[faults.BitflipSignature] {
			t.Fatalf("window covers %d serials and faults %v; the test needs four serials, a skew, a stale zone and a bitflip", len(serials), kinds)
		}
		if zoneMisses != int64(len(zones)) || valMisses != int64(len(vals)) {
			t.Errorf("workers=%d: %d zones signed for %d distinct versions, %d validations run for %d distinct keys",
				workers, zoneMisses, len(zones), valMisses, len(vals))
		}
		held := map[uint32]bool{}
		for k := range c.signedZones.entries {
			held[k.serial] = true
		}
		for k := range c.validations.entries {
			held[k.serial] = true
		}
		if len(held) > 2 {
			t.Errorf("workers=%d: the caches still hold %d serials after the run, want at most 2", workers, len(held))
		}
	}
}
