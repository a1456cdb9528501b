package faults

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/zone"
	"repro/internal/zonemd"
)

var studyTime = time.Date(2023, 11, 18, 7, 30, 0, 0, time.UTC)

func signedZone(t *testing.T) (*zone.Zone, *dnssec.Signer) {
	t.Helper()
	signer, err := dnssec.NewSigner(rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := zone.DefaultRootConfig()
	cfg.TLDCount = 20
	signed, err := signer.Sign(zone.SynthesizeRoot(cfg), studyTime)
	if err != nil {
		t.Fatal(err)
	}
	z, err := zonemd.AttachAndSign(signed, signer, zonemd.StateVerifiable, studyTime)
	if err != nil {
		t.Fatal(err)
	}
	return z, signer
}

func TestFlipSignatureBitBreaksDNSSEC(t *testing.T) {
	z, signer := signedZone(t)
	rng := rand.New(rand.NewSource(1))
	flip, ok := FlipSignatureBit(z, rng)
	if !ok {
		t.Fatal("no RRSIG to flip")
	}
	if flip.Before == flip.After {
		t.Error("flip did not change the record's rendering")
	}
	anchor := signer.TrustAnchor().Data.(dnswire.DSRecord)
	err := dnssec.ValidateZone(z, anchor, studyTime)
	if err == nil {
		t.Fatal("bitflipped zone validated")
	}
	if !errors.Is(err, dnssec.ErrBogusSignature) && !errors.Is(err, dnssec.ErrNoSignature) {
		t.Errorf("unexpected classification: %v", err)
	}
}

func TestFlipNameBitDetectedByZonemd(t *testing.T) {
	z, _ := signedZone(t)
	rng := rand.New(rand.NewSource(2))
	flip, ok := FlipNameBit(z, rng)
	if !ok {
		t.Fatal("no delegation to flip")
	}
	if flip.Before == flip.After {
		t.Error("flip changed nothing")
	}
	if err := zonemd.Verify(z); !errors.Is(err, zonemd.ErrDigestMismatch) {
		t.Errorf("ZONEMD verdict = %v, want digest mismatch", err)
	}
}

func TestFlipDeterministic(t *testing.T) {
	// ECDSA signing draws from crypto/rand, so two separately signed zones
	// differ; determinism is over the same zone content, so flip clones.
	z, _ := signedZone(t)
	z1, z2 := z.Clone(), z.Clone()
	f1, _ := FlipSignatureBit(z1, rand.New(rand.NewSource(7)))
	f2, _ := FlipSignatureBit(z2, rand.New(rand.NewSource(7)))
	if f1.RecordIndex != f2.RecordIndex || f1.After != f2.After {
		t.Error("same seed produced different flips")
	}
}

func TestFlipOnUnsignedZone(t *testing.T) {
	cfg := zone.DefaultRootConfig()
	cfg.TLDCount = 3
	z := zone.SynthesizeRoot(cfg)
	if _, ok := FlipSignatureBit(z, rand.New(rand.NewSource(1))); ok {
		t.Error("flipped a signature in an unsigned zone")
	}
}

func TestLossModel(t *testing.T) {
	l := LossModel{Prob: 0.3, Seed: 9}
	// Deterministic.
	if l.Lost(1, 2, 3, 4) != l.Lost(1, 2, 3, 4) {
		t.Error("loss not deterministic")
	}
	// Roughly calibrated.
	lost := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if l.Lost(i, i%28, i%100, i%47) {
			lost++
		}
	}
	frac := float64(lost) / n
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("loss fraction = %.3f, want ~0.30", frac)
	}
	// Zero probability never loses.
	z := LossModel{Prob: 0}
	for i := 0; i < 100; i++ {
		if z.Lost(i, 0, 0, 0) {
			t.Fatal("zero-prob loss")
		}
	}
}

// TestLossModelAllocationFree pins the hot-path property: deciding a loss
// must not allocate (the former implementation built a rand.Rand per call,
// ~5 allocations on every probe of every tick).
func TestLossModelAllocationFree(t *testing.T) {
	l := LossModel{Prob: 0.3, Seed: 9}
	sink := false
	allocs := testing.AllocsPerRun(1000, func() {
		sink = l.Lost(3, 11, 250, 7) || sink
	})
	if allocs != 0 {
		t.Errorf("Lost allocates %.1f objects per call, want 0", allocs)
	}
	_ = sink
}

// TestLossModelSeedSensitivity: different seeds must decorrelate the loss
// pattern, and the same coordinates under one seed are stable.
func TestLossModelSeedSensitivity(t *testing.T) {
	a := LossModel{Prob: 0.5, Seed: 1}
	b := LossModel{Prob: 0.5, Seed: 2}
	agree := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if a.Lost(i, i%28, i%100, 0) == b.Lost(i, i%28, i%100, 0) {
			agree++
		}
	}
	// Independent fair coins agree ~50%; near-total agreement means the
	// seed is being ignored.
	if agree > n*3/5 || agree < n*2/5 {
		t.Errorf("seeds agree on %d/%d decisions; expected ~half", agree, n)
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		None:             "none",
		BitflipSignature: "Bogus Signature",
		StaleZone:        "Signature expired",
		ClockSkew:        "Sig. not incepted",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestStaleZoneFailsValidationAsExpired(t *testing.T) {
	// A zone signed long ago fails validation with "expired" at study time,
	// the signature of the paper's stale d.root sites.
	signer, err := dnssec.NewSigner(rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := zone.DefaultRootConfig()
	cfg.TLDCount = 5
	old, err := signer.Sign(zone.SynthesizeRoot(cfg), studyTime.Add(-60*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	anchor := signer.TrustAnchor().Data.(dnswire.DSRecord)
	err = dnssec.ValidateZone(old, anchor, studyTime)
	if !errors.Is(err, dnssec.ErrSignatureExpired) {
		t.Errorf("stale zone verdict = %v, want expired", err)
	}
}
