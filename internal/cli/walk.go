package cli

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Walk is the one parser of the key=value flag grammar:
//
//	spec = [ term { "," term } ]
//	term = key "=" value
//
// Blanks around a term are dropped and a wholly blank spec has no terms; an
// empty term (",,", a trailing comma) and an empty key are refused. -netem,
// -rrl, -qlog-sample, -filter and -chaos are each this walk plus a switch on
// the key, so a bad spec is worded the same way in every binary.
//
// Walk calls set for every term of s, in order, and stops at the first
// refusal, which it returns naming the term.
func Walk(s string, set func(key, value string) error) error {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	for _, term := range strings.Split(s, ",") {
		term = strings.TrimSpace(term)
		k, v, ok := strings.Cut(term, "=")
		if !ok || k == "" {
			return fmt.Errorf("bad term %q (want key=value)", term)
		}
		if err := set(k, v); err != nil {
			return fmt.Errorf("bad term %q: %w", term, err)
		}
	}
	return nil
}

// Unknown is the refusal for a key the spec does not have.
func Unknown(key, want string) error {
	return fmt.Errorf("unknown key %q (want %s)", key, want)
}

// Prob parses a probability in [0, 1].
func Prob(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err == nil && (f < 0 || f > 1 || math.IsNaN(f)) {
		err = fmt.Errorf("%s is outside [0,1]", v)
	}
	return f, err
}
