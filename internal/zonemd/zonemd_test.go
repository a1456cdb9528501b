package zonemd

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/zone"
)

var studyTime = time.Date(2023, 12, 10, 12, 0, 0, 0, time.UTC)

func smallZone(t *testing.T) *zone.Zone {
	t.Helper()
	cfg := zone.DefaultRootConfig()
	cfg.TLDCount = 15
	return zone.SynthesizeRoot(cfg)
}

func TestAttachVerify(t *testing.T) {
	z, err := attach(smallZone(t), StateVerifiable)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(z); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestVerifyNoRecord(t *testing.T) {
	if err := Verify(smallZone(t)); !errors.Is(err, ErrNoZONEMD) {
		t.Errorf("got %v, want ErrNoZONEMD", err)
	}
}

func TestVerifyPlaceholderUnsupported(t *testing.T) {
	z, err := attach(smallZone(t), StatePlaceholder)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(z); !errors.Is(err, ErrUnsupported) {
		t.Errorf("got %v, want ErrUnsupported", err)
	}
}

func TestVerifySerialMismatch(t *testing.T) {
	z, err := attach(smallZone(t), StateVerifiable)
	if err != nil {
		t.Fatal(err)
	}
	bumped := z.BumpSerial(z.Serial() + 1)
	if err := Verify(bumped); !errors.Is(err, ErrSerialMismatch) {
		t.Errorf("got %v, want ErrSerialMismatch", err)
	}
}

func TestVerifyDetectsMutation(t *testing.T) {
	z, err := attach(smallZone(t), StateVerifiable)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate one glue record through the invalidating mutation path, as the
	// fault injectors do; the cached canonical form must be refreshed so the
	// digest actually sees the flipped bit.
	for i, rr := range z.Records {
		if a, ok := rr.Data.(dnswire.ARecord); ok {
			b := a.Addr.As4()
			b[3] ^= 0x01
			z.MutateRecord(i, func(rr *dnswire.RR) {
				rr.Data = dnswire.ARecord{Addr: netip.AddrFrom4(b)}
			})
			break
		}
	}
	if err := Verify(z); !errors.Is(err, ErrDigestMismatch) {
		t.Errorf("got %v, want ErrDigestMismatch", err)
	}
}

func TestDigestOrderIndependent(t *testing.T) {
	f := func(seed int64) bool {
		z := smallZone(t)
		want, err := Digest(z)
		if err != nil {
			return false
		}
		shuffled := z.Clone()
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(shuffled.Records), func(i, j int) {
			shuffled.Records[i], shuffled.Records[j] = shuffled.Records[j], shuffled.Records[i]
		})
		got, err := Digest(shuffled)
		if err != nil {
			return false
		}
		return string(got) == string(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestDigestIgnoresDuplicates(t *testing.T) {
	z := smallZone(t)
	want, err := Digest(z)
	if err != nil {
		t.Fatal(err)
	}
	dup := z.Clone()
	dup.Add(z.Records[len(z.Records)-1]) // duplicate one record
	got, err := Digest(dup)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("duplicate RR changed the digest")
	}
}

func TestDigestExcludesApexZONEMD(t *testing.T) {
	z, err := attach(smallZone(t), StateVerifiable)
	if err != nil {
		t.Fatal(err)
	}
	withRecord, err := Digest(z)
	if err != nil {
		t.Fatal(err)
	}
	without, err := Digest(z.WithoutType(dnswire.TypeZONEMD))
	if err != nil {
		t.Fatal(err)
	}
	if string(withRecord) != string(without) {
		t.Error("apex ZONEMD affected the digest")
	}
}

func TestStateAt(t *testing.T) {
	cases := []struct {
		t    time.Time
		want RolloutState
	}{
		{time.Date(2023, 7, 3, 0, 0, 0, 0, time.UTC), StateAbsent},
		{time.Date(2023, 9, 13, 0, 0, 0, 0, time.UTC), StatePlaceholder},
		{time.Date(2023, 10, 1, 0, 0, 0, 0, time.UTC), StatePlaceholder},
		{time.Date(2023, 12, 6, 20, 30, 0, 0, time.UTC), StateVerifiable},
		{time.Date(2023, 12, 24, 0, 0, 0, 0, time.UTC), StateVerifiable},
	}
	for _, c := range cases {
		if got := StateAt(c.t); got != c.want {
			t.Errorf("StateAt(%s) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestFullValidationSignedZone(t *testing.T) {
	signer, err := dnssec.NewSigner(rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	signed, err := signer.Sign(smallZone(t), studyTime)
	if err != nil {
		t.Fatal(err)
	}
	z, err := AttachAndSign(signed, signer, StateVerifiable, studyTime)
	if err != nil {
		t.Fatal(err)
	}
	anchor := signer.TrustAnchor().Data.(dnswire.DSRecord)
	zErr, dErr := FullValidation(z, anchor, studyTime.Add(time.Hour))
	if zErr != nil {
		t.Errorf("zonemd: %v", zErr)
	}
	if dErr != nil {
		t.Errorf("dnssec: %v", dErr)
	}
}

func TestFullValidationPreRolloutZoneSkipsZonemd(t *testing.T) {
	signer, err := dnssec.NewSigner(rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	signed, err := signer.Sign(smallZone(t), studyTime)
	if err != nil {
		t.Fatal(err)
	}
	anchor := signer.TrustAnchor().Data.(dnswire.DSRecord)
	zErr, dErr := FullValidation(signed, anchor, studyTime.Add(time.Hour))
	if zErr != nil {
		t.Errorf("pre-rollout zonemd err: %v", zErr)
	}
	if dErr != nil {
		t.Errorf("dnssec: %v", dErr)
	}
}

func TestRolloutStateString(t *testing.T) {
	for s, want := range map[RolloutState]string{
		StateAbsent: "absent", StatePlaceholder: "placeholder", StateVerifiable: "verifiable",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

// TestSignedChainGoldenDigest pins the bytes of the campaign's whole signing
// chain — BumpSerial → Sign → AttachAndSign, as measure.Campaign.signedZone
// runs it — at one serial per rollout state: b.root's old glue with no
// ZONEMD, the placeholder, and the verifiable digest. It is
// dnssec.TestSignZoneGoldenDigest's hash (owner spelling, TTL, canonical
// wire, in record order) taken three steps later, so it also holds what
// WithoutType, Add and Canonicalize leave in Records.
func TestSignedChainGoldenDigest(t *testing.T) {
	s := dnssec.NewDeterministicSigner(7)
	cfg := zone.DefaultRootConfig()
	cfg.TLDCount = 12
	post := zone.SynthesizeRoot(cfg)
	cfg.OldBRoot = true
	pre := zone.SynthesizeRoot(cfg)
	for _, c := range []struct {
		base   *zone.Zone
		serial uint32
		state  RolloutState
		at     time.Time
		want   string
	}{
		{pre, 2023080100, StateAbsent, time.Date(2023, 8, 1, 0, 0, 0, 0, time.UTC), "52619dabd0bfdefe64374688ec2fa0e1c865553e024ac44d7b40fea65c58b35d"},
		{pre, 2023100201, StatePlaceholder, time.Date(2023, 10, 2, 12, 0, 0, 0, time.UTC), "dc59891cd74368a3e207854689d422d23acfb35426afb58a94c26e11bcb17edb"},
		{post, 2023121000, StateVerifiable, time.Date(2023, 12, 10, 0, 0, 0, 0, time.UTC), "bfba6fbd5cb5633a510aaf7d56d1ccf86f774546024546659d9b3e45d2088a43"},
	} {
		signed, err := s.Sign(c.base.BumpSerial(c.serial), c.at)
		if err != nil {
			t.Fatal(err)
		}
		z, err := AttachAndSign(signed, s, c.state, c.at)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var ttl [4]byte
		for i, rr := range z.Records {
			h.Write([]byte(rr.Name))
			binary.BigEndian.PutUint32(ttl[:], rr.TTL)
			h.Write(ttl[:])
			h.Write(z.CanonicalWire(i))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("serial %d (%s): signed chain drifted:\n got %s\nwant %s", c.serial, c.state, got, c.want)
		}
		if zErr, dErr := FullValidation(z, s.TrustAnchor().Data.(dnswire.DSRecord), c.at.Add(time.Hour)); zErr != nil || dErr != nil {
			t.Errorf("serial %d (%s): does not validate: %v / %v", c.serial, c.state, zErr, dErr)
		}
	}
}

// TestSharedBaseSignedConcurrently is the campaign's use of World.BaseZone
// (scripts/race.sh): the producer and the workers bump, sign and digest
// serials off one shared, never-read base at once — the first of them builds
// its sidecar, all of them copy it — while other goroutines read its
// canonical order. Every chain must come out as it does alone.
func TestSharedBaseSignedConcurrently(t *testing.T) {
	s := dnssec.NewDeterministicSigner(7)
	chain := func(base *zone.Zone, serial uint32) []byte {
		signed, err := s.Sign(base.BumpSerial(serial), studyTime)
		if err != nil {
			t.Error(err)
			return nil
		}
		z, err := AttachAndSign(signed, s, StateVerifiable, studyTime)
		if err != nil {
			t.Error(err)
			return nil
		}
		h := sha256.New()
		for i := range z.Records {
			h.Write(z.CanonicalWire(i))
		}
		return h.Sum(nil)
	}
	const serial0 = 2023121000
	var want [8][]byte
	for g := range want {
		want[g] = chain(smallZone(t), serial0+uint32(g))
	}
	base := smallZone(t)
	order := smallZone(t).CanonicalOrder()
	var wg sync.WaitGroup
	for g := range want {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if got := chain(base, serial0+uint32(g)); !bytes.Equal(got, want[g]) {
				t.Errorf("serial %d signed off the shared base differs from the same serial signed alone", serial0+g)
			}
		}()
		go func() {
			defer wg.Done()
			if got := base.CanonicalOrder(); !slices.Equal(got, order) {
				t.Errorf("the shared base's canonical order changed under its readers")
			}
		}()
	}
	wg.Wait()
}
