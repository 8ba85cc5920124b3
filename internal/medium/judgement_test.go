package medium

import (
	"testing"

	"github.com/alphawan/alphawan/internal/mac"
	"github.com/alphawan/alphawan/internal/radio"
)

// TestJudgement pins the reception kernel both engines share, one rule per
// row. The victim is always received at -100 dBm over a -117 dBm noise
// floor; same, cross and off build the three kinds of interferer.
func TestJudgement(t *testing.T) {
	const (
		rssiV   = -100.0
		demod   = -7.5 // SF7
		ok      = radio.VerdictOK
		weak    = radio.VerdictWeakSignal
		collide = radio.VerdictChannelCollision
	)
	same := func(rssi float64, foreign bool) Interferer { // identical settings
		return Interferer{RSSI: rssi, Overlap: 1, SameSF: true, Foreign: foreign}
	}
	cross := func(rssi, rejection float64) Interferer { // another SF, co-channel
		return Interferer{RSSI: rssi, Overlap: 1, Rejection: rejection}
	}
	off := func(rssi, overlap float64) Interferer { // same SF, misaligned channel
		return Interferer{RSSI: rssi, Overlap: overlap, SameSF: true}
	}
	classic, cic, curving := Rule{}, Rule{ResolveCollisions: true}, Rule{Capture: mac.NewCurving()}

	for _, tc := range []struct {
		name    string
		rule    Rule
		in      []Interferer
		want    radio.DecodeVerdict
		foreign bool
		// adds is how many interferers the walk hands over before Add
		// reports the verdict settled (len(in) when it never does).
		adds int
	}{
		{"alone", classic, nil, ok, false, 0},
		{"capture margin 6.00 dB survives", classic, []Interferer{same(-106, false)}, ok, false, 1},
		{"capture margin 5.99 dB collides", classic, []Interferer{same(-105.99, true)}, collide, true, 1},
		{"classic stops at the first fatal collider", classic,
			[]Interferer{same(-120, false), same(-90, true), same(-90, false)}, collide, true, 2},
		{"fold order is Add order", classic,
			[]Interferer{same(-90, false), same(-90, true)}, collide, false, 1},

		{"CIC cancels one collider, however strong", cic, []Interferer{same(-60, true)}, ok, false, 1},
		{"CIC cannot peel two colliders", cic,
			[]Interferer{same(-90, false), same(-90, true)}, collide, false, 2},
		{"CIC pile-up: survivors fold in Add order", cic,
			[]Interferer{same(-120, false), same(-90, true), same(-90, false)}, collide, true, 3},
		{"CIC census ignores other SFs and misaligned channels", cic,
			[]Interferer{same(-60, false), cross(-90, -16), off(-90, 0.5)}, ok, false, 3},

		{"Curving: 0.5 dB apart collides", curving, []Interferer{same(-100.5, false)}, collide, false, 1},
		{"Curving: 3 dB stronger interferer still decodes", curving, []Interferer{same(-97, false)}, ok, false, 1},
		{"classic: the same 3 dB stronger interferer collides", classic, []Interferer{same(-97, false)}, collide, false, 1},
		{"Curving: a survivor's energy still counts as noise", curving, []Interferer{same(-90, false)}, weak, false, 1},

		{"cross-SF: 20 dB stronger, 16 dB rejection", classic, []Interferer{cross(-80, -16)}, ok, false, 1},
		{"cross-SF: 20 dB stronger, 8 dB rejection", classic, []Interferer{cross(-80, -8)}, weak, false, 1},
		{"cross-SF never collides", classic, []Interferer{cross(-40, -25)}, weak, false, 1},

		// 50% overlap: -6 dB truncation and -20 dB offset rejection.
		{"misaligned same-SF inside the capture margin only adds noise", classic,
			[]Interferer{off(-70, 0.5)}, ok, false, 1},
		{"misaligned same-SF can drown the packet but not collide it", classic,
			[]Interferer{off(-60, 0.5)}, weak, false, 1},
		{"89% overlap is not identical settings", classic, []Interferer{off(-100, 0.89)}, ok, false, 1},
		{"90% overlap is", classic, []Interferer{off(-100, 0.9)}, collide, false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var j Judgement
			// A reused Judgement must carry nothing over from the last packet.
			j.Begin(cic, -130)
			j.Add(&Interferer{RSSI: -50, Overlap: 1, SameSF: true, Foreign: true})
			j.Add(&Interferer{RSSI: -50, Overlap: 1, SameSF: true, Foreign: true})

			j.Begin(tc.rule, rssiV)
			adds := 0
			for i := range tc.in {
				adds++
				if !j.Add(&tc.in[i]) {
					break
				}
			}
			if adds != tc.adds {
				t.Errorf("walk handed over %d interferers, want %d", adds, tc.adds)
			}
			v, foreign := j.Verdict(noiseFloorLin125, demod)
			if v != tc.want || foreign != tc.foreign {
				t.Errorf("verdict %v foreign=%v, want %v foreign=%v", v, foreign, tc.want, tc.foreign)
			}
		})
	}
}

func TestRuleBuriesPreambles(t *testing.T) {
	if !(Rule{}).BuriesPreambles() {
		t.Error("a classic receiver loses buried preambles")
	}
	if (Rule{ResolveCollisions: true}).BuriesPreambles() {
		t.Error("a CIC receiver separates superposed preambles")
	}
	if (Rule{Capture: mac.NewCurving()}).BuriesPreambles() {
		t.Error("Curving locks superposed preambles separately")
	}
	if !Buries(-94, -100) || Buries(-94.01, -100) {
		t.Error("burial needs the full capture threshold")
	}
}
