package seeded

import "testing"

// The helper replaced seven private copies whose outputs are recorded in
// golden reports, flight logs and query-ID sequences, so its values are
// pinned to the published vectors: SplitMix64's first outputs from seed 0
// and the FNV-1a reference strings.
func TestKnownAnswers(t *testing.T) {
	if got := Mix(0); got != 0xe220a8397b1dcdaf {
		t.Errorf("Mix(0) = %#x", got)
	}
	// The generator's second output is the mix of the advanced state.
	if got := Mix(0x9e3779b97f4a7c15); got != 0x6e789e6aa1b965f4 {
		t.Errorf("Mix(golden) = %#x", got)
	}
	for _, c := range []struct {
		in   string
		want uint64
	}{
		{"", FNVBasis},
		{"a", 0xaf63dc4c8601ec8c},
		{"foobar", 0x85944171f73967e8},
	} {
		if got := FNV(FNVBasis, []byte(c.in)); got != c.want {
			t.Errorf("FNV(%q) = %#x, want %#x", c.in, got, c.want)
		}
		if got := FNVString(FNVBasis, c.in); got != c.want {
			t.Errorf("FNVString(%q) = %#x, want %#x", c.in, got, c.want)
		}
	}
	if FNVString(1, "x") == FNVString(FNVBasis, "x") {
		t.Error("the basis does not enter the hash")
	}
}

func TestUnit(t *testing.T) {
	if Unit(0) != 0 || Unit(1<<63) != 0.5 {
		t.Errorf("Unit(0) = %v, Unit(1<<63) = %v", Unit(0), Unit(1<<63))
	}
	if top := Unit(^uint64(0)); top >= 1 || top <= 0.999999 {
		t.Errorf("Unit(max) = %v, want just under 1", top)
	}
	// The low 11 bits are dropped, not rounded in.
	if Unit(0x7ff) != 0 {
		t.Errorf("Unit(0x7ff) = %v", Unit(0x7ff))
	}
}

// Keys that differ by one (consecutive ticks) must not share draws at
// neighbouring indices, which Mix(key + k) would: one tick's second draw
// would be the next tick's first.
func TestDrawsDistinctAcrossNeighbouringKeys(t *testing.T) {
	seen := map[uint64]bool{}
	for key := uint64(0); key < 4096; key++ {
		for k := 0; k < 16; k++ {
			d := Draw(key, k)
			if seen[d] {
				t.Fatalf("Draw(%d, %d) repeats an earlier draw", key, k)
			}
			seen[d] = true
		}
	}
	if Draw(7, 0) != Draw(7, 0) || Draw(7, 0) == Draw(7, 1) {
		t.Error("Draw is not a function of (key, k)")
	}
}
