package analysis

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestArtefacts: the list names each artefact once, every entry renders its
// own heading from a short campaign, and DESIGN.md §4 indexes exactly the
// list, in its order.
func TestArtefacts(t *testing.T) {
	w := testWorld(t)
	s := NewSuite(w.System, w.Population)
	s.Traffic = NewTraffic(500, 1)
	runCampaign(t, w, time.Date(2023, 11, 20, 0, 0, 0, 0, time.UTC), 48*time.Hour, 16, s.Handlers()...)

	var ids []string
	headings := map[string]string{}
	for _, a := range Artefacts {
		if slices.Contains(ids, a.ID) {
			t.Errorf("%s is listed twice", a.ID)
		}
		ids = append(ids, a.ID)
		var sb strings.Builder
		a.Write(s, &sb)
		heading, _, _ := strings.Cut(sb.String(), "\n")
		if !namesArtefact(heading, a.ID) {
			t.Errorf("%s renders %q, which does not open with its heading", a.ID, sb.String())
		}
		if other, ok := headings[heading]; ok {
			t.Errorf("%s and %s both open with %q", other, a.ID, heading)
		}
		headings[heading] = a.ID
	}

	if got := designIndex(t); !slices.Equal(got, ids) {
		t.Errorf("DESIGN.md §4 indexes %q, the list is %q", got, ids)
	}
}

// namesArtefact reports whether a heading names the artefact id: T1 opens with
// "Table 1:", F14 with "Figures 14/", S4.2 with "Section 4.2:", S6-rtt with
// "Section 6:", and AppB mentions "Appendix B".
func namesArtefact(heading, id string) bool {
	if appendix, ok := strings.CutPrefix(id, "App"); ok {
		return strings.Contains(heading, "Appendix "+appendix)
	}
	word := map[byte]string{'T': "Table", 'F': "Figures?", 'S': "Section"}[id[0]]
	number, _, _ := strings.Cut(id[1:], "-")
	return word != "" && regexp.MustCompile(`^`+word+` `+regexp.QuoteMeta(number)+`[:/]`).MatchString(heading)
}

// designIndex returns the ID column of DESIGN.md §4's first table.
func designIndex(t *testing.T) []string {
	t.Helper()
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n## 4. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 4")
	}
	var ids []string
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		id := strings.TrimSpace(strings.Split(line, "|")[1])
		if id != "ID" && !strings.HasPrefix(id, "---") {
			ids = append(ids, id)
		}
	}
	return ids
}
