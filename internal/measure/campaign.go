package measure

import (
	"errors"
	"fmt"
	mrand "math/rand"
	"time"

	"repro/internal/anycast"
	"repro/internal/dnssec"
	"repro/internal/dnsserver"
	"repro/internal/dnswire"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/rss"
	"repro/internal/seeded"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traceroute"
	"repro/internal/vantage"
	"repro/internal/zone"
	"repro/internal/zonemd"
)

// ProbeEvent is one completed probe (traceroute + query battery) from one VP
// to one root service address during one tick.
type ProbeEvent struct {
	Tick   Tick
	VP     *vantage.VP
	VPIdx  int
	Target rss.ServiceAddr
	// Lost marks a probe whose queries all timed out (no route or packet
	// loss under dig +retry=0).
	Lost bool
	// Degraded marks a probe the supervisor salvaged after a worker fault
	// (recovered panic or injected error): the outcome is recorded as lost
	// and counted against Config.ErrorBudget instead of killing the pool.
	Degraded bool
	// Site fields are valid when !Lost.
	SiteID     string
	Identifier string
	Facility   string
	SiteCity   geo.City
	SiteKind   anycast.SiteKind
	// RTTms is the query round-trip time.
	RTTms float64
	// ASPath is the AS-level forward path.
	ASPath []int
	// SecondToLast is the second-to-last traceroute hop identity; STLOK is
	// false when the hop did not respond.
	SecondToLast string
	STLOK        bool
}

// TransferEvent is one AXFR attempt with its validation outcome.
type TransferEvent struct {
	Tick   Tick
	VP     *vantage.VP
	VPIdx  int
	Target rss.ServiceAddr
	Lost   bool
	// Degraded marks a transfer outcome salvaged by the worker supervisor;
	// see ProbeEvent.Degraded.
	Degraded bool
	Serial   uint32
	// Fault is the injected fault class behind a failed validation (None
	// for clean transfers).
	Fault faults.Kind
	// ZonemdErr and DNSSECErr carry the real validator's classification.
	ZonemdErr, DNSSECErr error
	// ComparisonMismatch reports that the transferred zone differs from a
	// reference copy with the same SOA (the paper's ICANN-download check).
	// It catches corruption in glue/delegation data that DNSSEC does not
	// cover before ZONEMD became verifiable.
	ComparisonMismatch bool
	// Bitflip, when non-nil, renders the corrupted record (Fig. 10).
	Bitflip *faults.Bitflip
}

// Handler consumes campaign events, on the goroutine that called Run, one at
// a time in serial order. The next tick is computed meanwhile but delivered
// after this one, so a slow handler still bounds the campaign: be cheap.
type Handler interface {
	HandleProbe(ProbeEvent)
	HandleTransfer(TransferEvent)
}

// BitflipPlan schedules one memory bitflip affecting a transfer.
type BitflipPlan struct {
	VPIdx  int
	Letter rss.Letter
	Family topology.Family
	Old    bool
	At     time.Time
	// FlipName corrupts an owner name instead of a signature (the paper's
	// .ruhr case).
	FlipName bool
}

// SkewWindow gives one VP a broken clock during a window.
type SkewWindow struct {
	VPIdx      int
	Start, End time.Time
	Skew       time.Duration
}

// StaleWindow makes specific deployment sites serve a stale zone copy.
type StaleWindow struct {
	Letter     rss.Letter
	SiteIDs    []string
	Start, End time.Time
	// Age is how far behind the stale copy's signatures are.
	Age time.Duration
}

// FaultPlan is the campaign's injected-fault schedule. DefaultFaultPlan
// mirrors the paper's Table 2 observations.
type FaultPlan struct {
	Bitflips []BitflipPlan
	Skews    []SkewWindow
	Stales   []StaleWindow
	Loss     faults.LossModel
}

// DefaultFaultPlan reproduces Table 2's shape: eight bitflipped transfers on
// three VPs across five servers, two clock-skew VPs (one brief, one
// spanning 2023-12-21 to 2023-12-23), and two stale d.root sites (the
// paper's Tokyo and Leeds cases, 2023-08-16 and 2023-10-06).
func DefaultFaultPlan(d *anycast.Deployment) FaultPlan {
	day := func(m time.Month, d, h int) time.Time {
		return time.Date(2023, m, d, h, 0, 0, 0, time.UTC)
	}
	// The paper's stale sites are d.root in Tokyo and Leeds — reachable
	// global sites, one in Asia and one in Europe.
	staleSites := make([]string, 0, 2)
	for _, region := range []geo.Region{geo.Asia, geo.Europe} {
		for _, s := range d.Sites {
			if s.Kind == anycast.Global && s.City.Region == region {
				staleSites = append(staleSites, s.ID)
				break
			}
		}
	}
	for len(staleSites) < 2 && len(d.Sites) > len(staleSites) {
		staleSites = append(staleSites, d.Sites[len(staleSites)].ID)
	}
	return FaultPlan{
		Skews: []SkewWindow{
			{VPIdx: 1, Start: day(time.December, 21, 10), End: day(time.December, 23, 11), Skew: -26 * time.Hour},
			{VPIdx: 2, Start: day(time.October, 2, 22), End: day(time.October, 2, 23), Skew: -26 * time.Hour},
		},
		Stales: []StaleWindow{
			{Letter: "d", SiteIDs: staleSites[:1], Start: day(time.August, 16, 10), End: day(time.August, 16, 12), Age: 40 * 24 * time.Hour},
			{Letter: "d", SiteIDs: staleSites[1:], Start: day(time.October, 6, 10), End: day(time.October, 6, 14), Age: 40 * 24 * time.Hour},
		},
		Loss: faults.LossModel{Prob: 0.004, Seed: 77},
		// Eight bitflips: three VPs, five distinct servers, one a name flip.
		Bitflips: []BitflipPlan{
			{VPIdx: 3, Letter: "d", Family: topology.IPv6, At: day(time.September, 26, 21)},
			{VPIdx: 3, Letter: "d", Family: topology.IPv6, At: day(time.October, 24, 10)},
			{VPIdx: 4, Letter: "g", Family: topology.IPv6, At: day(time.November, 18, 7)},
			{VPIdx: 4, Letter: "b", Family: topology.IPv4, Old: true, At: day(time.November, 21, 6), FlipName: true},
			{VPIdx: 5, Letter: "c", Family: topology.IPv6, At: day(time.September, 26, 10)},
			{VPIdx: 5, Letter: "g", Family: topology.IPv4, At: day(time.October, 9, 7)},
			{VPIdx: 5, Letter: "c", Family: topology.IPv6, At: day(time.October, 2, 12)},
			{VPIdx: 3, Letter: "d", Family: topology.IPv6, At: day(time.October, 12, 9)},
		},
	}
}

// Config parameterizes a campaign.
type Config struct {
	// Start and End bound the campaign; zero values take the paper's dates.
	Start, End time.Time
	// Scale thins the measurement schedule (1 = every 30/15 minutes).
	Scale int
	// TLDCount sizes the synthesized root zone.
	TLDCount int
	// Seed drives all stochastic choices.
	Seed int64
	// WireCheck runs the full Appendix-F query battery through an
	// in-process authoritative server once per tick, verifying the wire
	// codec, server logic, and zone contents end-to-end during the
	// campaign. Failures are reported via Campaign.WireFailures.
	WireCheck bool
	// Workers bounds the campaign's worker pool: each tick's VP loop is
	// sharded across this many goroutines. 0 (the default) uses
	// runtime.GOMAXPROCS(0); 1 runs fully serial. The same seed produces
	// byte-identical reports at any worker count.
	Workers int
	// CheckpointPath, when non-empty, enables crash-safe progress
	// checkpoints: at every CheckpointEvery-tick boundary the campaign
	// seals every handler that is a checkpoint.Part (making its output
	// durable) and atomically replaces the checkpoint file, so a killed run
	// can resume byte-identically.
	CheckpointPath string
	// CheckpointEvery is the checkpoint cadence in ticks (0 = 32). It is
	// part of the determinism contract: interrupted and uninterrupted runs
	// must use the same cadence, because checkpoint boundaries also seal
	// dataset blocks. It is part of the checkpoint signature, so a resume at
	// another cadence is refused.
	CheckpointEvery int
	// Resume fast-forwards the campaign from the checkpoint at
	// CheckpointPath instead of starting at the first tick. The checkpoint
	// must come from an identically configured campaign (worker count and
	// error budget may differ), and the handlers passed to Run must be the
	// same kinds in the same order, built over the interrupted run's output
	// files: Run restores them from the checkpoint.
	Resume bool
	// ErrorBudget bounds degraded outcomes (recovered worker panics,
	// per-probe errors, retried dataset write errors) before the campaign
	// aborts with a summarized error: n >= 0 tolerates n outcomes,
	// negative is unlimited.
	ErrorBudget int
}

// DefaultConfig is a harness-scale campaign: the full VP population and
// target set on a thinned schedule.
func DefaultConfig() Config {
	return Config{
		Start: StudyStart, End: StudyEnd,
		Scale: 48, TLDCount: 80, Seed: 1,
	}
}

// World bundles the simulated infrastructure a campaign runs against.
type World struct {
	Topo       *topology.Topology
	System     *rss.System
	Population *vantage.Population
	// Catchments holds every letter's catchment in both families, resolved
	// by NewCampaign (NewWorld leaves them for a replay, which reads none)
	// or else by the first read of each.
	Catchments map[rss.Letter]map[topology.Family]*anycast.Catchment
	Signer     *dnssec.Signer
	// BaseZone is the unsigned post-renumbering zone; BaseZonePre carries
	// b.root's old glue, as the real root zone did before 2023-11-27.
	BaseZone    *zone.Zone
	BaseZonePre *zone.Zone
	Anchor      dnswire.DSRecord
}

// NewWorld builds the full simulated world: topology, 13 deployments,
// VP population, unresolved catchments, and the DNSSEC signer with its trust
// anchor. It computes no routing table: what replays a recording needs of
// the world is its System and Population.
func NewWorld(cfg Config, topoCfg topology.Config, vpCfg vantage.Config) (*World, error) {
	topo := topology.Build(topoCfg)
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	sys := rss.Build(topo, cfg.Seed)
	pop := vantage.Generate(topo, vpCfg)
	if len(pop.VPs) == 0 {
		return nil, errors.New("measure: empty VP population")
	}
	// The signer is derived from the seed so that identically configured
	// worlds hold identical keys — together with deterministic RRSIG
	// generation this makes reports byte-identical across runs and worker
	// counts (Config.Seed drives *all* stochastic choices, key material
	// included).
	signer := dnssec.NewDeterministicSigner(cfg.Seed)
	zcfg := zone.DefaultRootConfig()
	zcfg.TLDCount = cfg.TLDCount
	zcfg.Seed = cfg.Seed
	base := zone.SynthesizeRoot(zcfg)
	zcfgPre := zcfg
	zcfgPre.OldBRoot = true
	basePre := zone.SynthesizeRoot(zcfgPre)
	return &World{
		Topo:        topo,
		System:      sys,
		Population:  pop,
		Catchments:  sys.Catchments(),
		Signer:      signer,
		BaseZone:    base,
		BaseZonePre: basePre,
		Anchor:      signer.TrustAnchor().Data.(dnswire.DSRecord),
	}, nil
}

// Campaign executes the measurement schedule over a world.
type Campaign struct {
	Cfg   Config
	World *World
	Plan  FaultPlan

	traceCfg traceroute.Config
	// probes is the probe plan of the Run in progress (plan.go).
	probes *probePlan
	// signedZones caches fully signed+digested zones by (serial, state,
	// staleness); single-flight, so concurrent workers never sign the same
	// zone twice. produce forgets the serials the schedule has left behind.
	signedZones *flightCache[zoneKey, signedResult]
	// validations caches fault classifications, also single-flight.
	validations *flightCache[valKey, valResult]
	// battery is the wire-check battery of the zone version batteryKey, the
	// last one runWireCheck ran. Ticks walk time forwards and (serial,
	// rollout state) only moves forwards with it, so a version once left is
	// never asked for again and remembering one is remembering all.
	batteryKey zoneKey
	battery    *Battery

	// WireQueries and WireFailures accumulate the wire-check results when
	// Config.WireCheck is enabled, tick by delivered tick.
	WireQueries  int
	WireFailures []string

	// deg tracks supervisor-salvaged outcomes against Config.ErrorBudget.
	deg degradedState
}

type zoneKey struct {
	serial uint32
	state  zonemd.RolloutState
	stale  bool
}

type valKey struct {
	serial uint32
	state  zonemd.RolloutState
	fault  faults.Kind
	skewed bool
}

type valResult struct {
	zonemdErr, dnssecErr error
}

type signedResult struct {
	z   *zone.Zone
	err error
}

// NewCampaign wires a campaign; the fault plan defaults to the paper's
// Table 2 shape over d.root's sites. It resolves the world's 26 catchments on
// Config.Workers goroutines, so that their cost falls in the campaign's setup
// and not in Run; the tables are the same at any count.
func NewCampaign(cfg Config, w *World) *Campaign {
	w.System.ResolveCatchments(w.Catchments, cfg.workerCount())
	if cfg.Start.IsZero() {
		cfg.Start = StudyStart
	}
	if cfg.End.IsZero() {
		cfg.End = StudyEnd
	}
	if cfg.Scale < 1 {
		cfg.Scale = 1
	}
	return &Campaign{
		Cfg:         cfg,
		World:       w,
		Plan:        DefaultFaultPlan(w.System.Deployments["d"]),
		traceCfg:    traceroute.DefaultConfig(),
		signedZones: newFlightCache[zoneKey, signedResult](mZoneHits, mZoneMisses),
		validations: newFlightCache[valKey, valResult](mValHits, mValMisses),
	}
}

// Run is implemented in pool.go: the tick×VP×target walk is sharded across
// a worker pool, a tick ahead of a deterministic ordered drain into handlers.

// runWireCheck executes the Appendix-F battery against the tick's zone
// version through an in-process server and returns what it found, for
// deliver to accumulate. Only the goroutine producing the tick runs it.
func (c *Campaign) runWireCheck(tick Tick) (BatteryResult, error) {
	timer := telemetry.StartTimer()
	span := telemetry.StartSpan("campaign", "wirecheck", tick.Index, 1)
	defer func() {
		span.End()
		timer.ObserveInto(mWirecheckDur)
	}()
	serial := SerialAt(tick.Time)
	state := zonemd.StateAt(tick.Time)
	key := zoneKey{serial, state, false}
	if c.battery != nil && key == c.batteryKey {
		mBatteryHits.Inc()
	} else {
		mBatteryMisses.Inc()
		z, err := c.signedZone(serial, state, SerialPublishedAt(tick.Time), false)
		if err != nil {
			return BatteryResult{}, err
		}
		battery, err := NewBattery(z, dnsserver.Identity{
			Hostname: "wirecheck.local", Version: "repro-campaign",
		})
		if err != nil {
			return BatteryResult{}, err
		}
		c.batteryKey, c.battery = key, battery
	}
	return c.battery.Run(rss.ServiceAddr{Letter: "a", Family: topology.IPv4}, "wirecheck.local"), nil
}

// probe performs the traceroute+query battery for one (tick, VP, target):
// it looks the pair up in the plan, draws which candidate route the tick uses
// and whether the probe is lost, copies what the plan resolved for that
// candidate, and draws the jitter and whether the facility edge — all a
// ProbeEvent keeps of a traceroute — answers.
//
//rootlint:hotpath
func (c *Campaign) probe(tick Tick, vp *vantage.VP, vpIdx, tIdx int) ProbeEvent {
	pe := ProbeEvent{Tick: tick, VP: vp, VPIdx: vpIdx, Target: c.probes.targets[tIdx]}
	e := c.probes.entries[vpIdx*len(c.probes.targets)+tIdx]
	if len(e.cands) == 0 || c.Plan.Loss.Lost(vpIdx, tIdx, tick.Index, 0) {
		pe.Lost = true
		return pe
	}
	cand := &e.cands[e.choices.Pick(vp.ASN, tick.Index, c.Cfg.Seed)]
	pe.SiteID = cand.siteID
	pe.Identifier = cand.identifier
	pe.Facility = cand.facility
	pe.SiteCity = cand.city
	pe.SiteKind = cand.kind
	pe.ASPath = cand.asPath
	// Whole centi-milliseconds, truncated, as a recording has always stored
	// them: live handlers see what a replay of the recording sees.
	pe.RTTms = float64(uint64((cand.rtt+rttJitter(c.Cfg.Seed, vpIdx, tIdx, tick.Index))*100)) / 100
	if traceroute.EdgeAnswers(c.traceCfg, c.Cfg.Seed, tick.Index, cand.originASN, len(cand.asPath)) {
		pe.SecondToLast, pe.STLOK = cand.edge, true
	}
	return pe
}

// rttFor computes the path RTT, adding the open-v6 carrier's poor IPv4
// performance (paper §6: 221 ms average v4 vs 23 ms v6 through AS6939).
func rttFor(route topology.Route, f topology.Family) float64 {
	rtt := geo.RTTms(route.PathKm, route.Hops()*2+2, 0.25)
	if f == topology.IPv4 {
		for _, asn := range route.ASPath[1:max(1, len(route.ASPath))] {
			if asn == topology.ASNOpenV6 {
				rtt += 150 // congested v4 through the open-peering carrier
				break
			}
		}
	}
	return rtt
}

// CentiMs is an RTT in the whole centi-milliseconds the recorder and the
// flight log store. It rounds: a probe's RTT is a whole number of them, and
// rounding undoes the division's float error (0.29*100 is 28.999999999999996).
func CentiMs(ms float64) uint64 { return uint64(ms*100 + 0.5) }

// rttJitter adds deterministic per-probe noise, uniform in [0, 2) ms. The
// probe key is mixed through seeded.Mix instead of seeding a
// throwaway math/rand generator, keeping the hottest per-probe call
// allocation-free.
//
//rootlint:hotpath
func rttJitter(seed int64, vpIdx, tIdx, tick int) float64 {
	h := uint64(seed)
	h = seeded.Mix(h ^ uint64(vpIdx))
	h = seeded.Mix(h ^ uint64(tIdx)<<24)
	h = seeded.Mix(h ^ uint64(tick)<<48)
	return seeded.Unit(h) * 2.0
}

// transfer performs the AXFR step and classifies its validation outcome.
// siteID is the site the probe reached; a lost probe (reached false) leaves
// nothing to transfer from.
func (c *Campaign) transfer(tick Tick, vp *vantage.VP, vpIdx, tIdx int, target rss.ServiceAddr, siteID string, reached bool) TransferEvent {
	te := TransferEvent{Tick: tick, VP: vp, VPIdx: vpIdx, Target: target}
	if !reached || c.Plan.Loss.Lost(vpIdx, tIdx, tick.Index, 1) {
		te.Lost = true
		return te
	}
	serial := SerialAt(tick.Time)
	te.Serial = serial
	state := zonemd.StateAt(tick.Time)

	fault, stale, skew := c.classifyFault(tick, vpIdx, target, siteID)
	te.Fault = fault
	switch fault {
	case faults.None:
		// Clean transfer of the canonical zone: valid by construction.
		return te
	case faults.ClockSkew:
		res := c.validate(serial, state, fault, tick.Time, tick.Time.Add(skew), stale, nil)
		te.ZonemdErr, te.DNSSECErr = res.zonemdErr, res.dnssecErr
	case faults.StaleZone:
		res := c.validate(serial, state, fault, tick.Time, tick.Time, stale, nil)
		te.ZonemdErr, te.DNSSECErr = res.zonemdErr, res.dnssecErr
		te.ComparisonMismatch = true // stale copy differs from the reference
	case faults.BitflipSignature, faults.BitflipName:
		var flip faults.Bitflip
		res := c.validate(serial, state, fault, tick.Time, tick.Time, stale, &flip)
		te.ZonemdErr, te.DNSSECErr = res.zonemdErr, res.dnssecErr
		te.Bitflip = &flip
		te.ComparisonMismatch = true // any flip differs from the reference
	}
	return te
}

// classifyFault decides which planned fault (if any) hits this transfer.
// The returned StaleWindow pointer carries staleness parameters; the
// returned duration is the clock skew for ClockSkew faults.
func (c *Campaign) classifyFault(tick Tick, vpIdx int, target rss.ServiceAddr, siteID string) (faults.Kind, *StaleWindow, time.Duration) {
	interval := BaseInterval(tick.Time) * time.Duration(c.Cfg.Scale)
	for _, b := range c.Plan.Bitflips {
		if b.VPIdx == vpIdx && b.Letter == target.Letter && b.Family == target.Family &&
			b.Old == target.Old && !tick.Time.Before(b.At) && tick.Time.Before(b.At.Add(interval)) {
			if b.FlipName {
				return faults.BitflipName, nil, 0
			}
			return faults.BitflipSignature, nil, 0
		}
	}
	// Windows are matched by overlap with the tick's covered interval so a
	// thinned schedule (large Scale) still observes short fault windows,
	// like the paper's 15-minute cadence observed its multi-hour events.
	overlaps := func(start, end time.Time) bool {
		return tick.Time.Before(end) && tick.Time.Add(interval).After(start)
	}
	for _, s := range c.Plan.Skews {
		if s.VPIdx == vpIdx && overlaps(s.Start, s.End) {
			return faults.ClockSkew, nil, s.Skew
		}
	}
	for i := range c.Plan.Stales {
		s := &c.Plan.Stales[i]
		if s.Letter != target.Letter || !overlaps(s.Start, s.End) {
			continue
		}
		for _, id := range s.SiteIDs {
			if id == siteID {
				return faults.StaleZone, s, 0
			}
		}
	}
	return faults.None, nil, 0
}

// signedZone returns (building and caching as needed) the fully signed and
// ZONEMD-attached zone for a serial. Stale copies are signed with an old
// inception so their signatures are genuinely expired. Safe for concurrent
// use: the cache is single-flight, so each zone version is signed exactly
// once per campaign no matter how many workers ask.
func (c *Campaign) signedZone(serial uint32, state zonemd.RolloutState, signTime time.Time, stale bool) (*zone.Zone, error) {
	res := c.signedZones.get(zoneKey{serial, state, stale}, func() signedResult {
		// Build-once span: each zone version is signed exactly once per
		// campaign, so this stage appears once per serial in a trace.
		span := telemetry.StartSpan("worker", "sign", -1, 0)
		defer span.End()
		baseZone := c.World.BaseZone
		if zone.SerialCompare(serial, 2023112700) < 0 {
			baseZone = c.World.BaseZonePre
		}
		base := baseZone.BumpSerial(serial)
		signed, err := c.World.Signer.Sign(base, signTime)
		if err != nil {
			return signedResult{err: err}
		}
		z, err := zonemd.AttachAndSign(signed, c.World.Signer, state, signTime)
		return signedResult{z, err}
	})
	return res.z, res.err
}

// validate builds the (possibly faulty) zone a transfer would deliver and
// runs the full ldns-style validation, caching by fault class. Bitflip
// faults (flipOut != nil) bypass the cache: each needs the flip rendered,
// and the flip is deterministic in (seed, serial), so recomputing stays
// reproducible. Safe for concurrent use.
func (c *Campaign) validate(serial uint32, state zonemd.RolloutState, fault faults.Kind, now, vpNow time.Time, stale *StaleWindow, flipOut *faults.Bitflip) valResult {
	if flipOut != nil {
		return c.validateUncached(serial, state, fault, now, vpNow, stale, flipOut)
	}
	key := valKey{serial, state, fault, !vpNow.Equal(now)}
	return c.validations.get(key, func() valResult {
		return c.validateUncached(serial, state, fault, now, vpNow, stale, nil)
	})
}

func (c *Campaign) validateUncached(serial uint32, state zonemd.RolloutState, fault faults.Kind, now, vpNow time.Time, stale *StaleWindow, flipOut *faults.Bitflip) valResult {
	span := telemetry.StartSpan("worker", "validate", -1, 0)
	defer span.End()
	signTime := SerialPublishedAt(now)
	zstale := false
	if fault == faults.StaleZone && stale != nil {
		signTime = signTime.Add(-stale.Age)
		zstale = true
	}
	z, err := c.signedZone(serial, state, signTime, zstale)
	if err != nil {
		return valResult{dnssecErr: err}
	}
	if fault == faults.BitflipSignature || fault == faults.BitflipName {
		// Copy-on-write: the flip mutates one record, so sharing the cached
		// canonical forms (and signature verdicts) of the untouched records
		// with the cached signed zone makes re-validation after the flip pay
		// only for what the flip actually invalidated.
		z = z.CloneCOW()
		rng := mrand.New(mrand.NewSource(c.Cfg.Seed ^ int64(serial)))
		var flip faults.Bitflip
		var ok bool
		if fault == faults.BitflipName {
			flip, ok = faults.FlipNameBit(z, rng)
		} else {
			flip, ok = faults.FlipSignatureBit(z, rng)
		}
		if !ok {
			return valResult{dnssecErr: fmt.Errorf("measure: could not inject %s", fault)}
		}
		if flipOut != nil {
			*flipOut = flip
		}
	}
	zErr, dErr := zonemd.FullValidation(z, c.World.Anchor, vpNow)
	return valResult{zonemdErr: zErr, dnssecErr: dErr}
}
