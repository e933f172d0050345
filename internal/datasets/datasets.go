// Package datasets provides deterministic synthetic reproductions of the
// eleven evaluation datasets of Table 2. The originals (NYC taxi counts,
// UCI gas-sensor readings, Keogh's EEG/Power/Sine traces, CityBench
// traffic, NAB machine-temperature / Twitter-AAPL / simulated-daily, the
// TSDL England temperature record, and LA freeway ramp counts) are not
// redistributable here, so each generator reproduces the properties ASAP's
// behaviour depends on — length, sampling interval, period structure,
// noise level, and the documented anomaly — from the descriptions in the
// paper (Section 5, Table 2, Appendices B and C). DESIGN.md Section 3
// records this substitution.
//
// All generators are pure functions of (n, seed): the same arguments
// always produce the same series, which keeps every experiment in this
// repository reproducible bit-for-bit.
package datasets

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/asap-go/asap/internal/timeseries"
)

// Spec describes one evaluation dataset: its Table 2 metadata, the paper's
// reported batch-search results (printed beside the measured ones by
// `asap-bench -run table2`), and the generator that synthesizes it.
type Spec struct {
	// Name matches Table 2 ("Taxi", "gas sensor", ...).
	Name string
	// Description paraphrases the Table 2 description column.
	Description string
	// N is the default number of points (Table 2 "# points").
	N int
	// Interval is the sampling interval implied by Table 2's duration.
	Interval time.Duration
	// DurationLabel is Table 2's human-readable duration.
	DurationLabel string
	// AnomalyFracStart/End delimit the known anomaly as fractions of the
	// series length; both are -1 when the dataset has no labeled anomaly.
	AnomalyFracStart float64
	AnomalyFracEnd   float64
	// AnomalyText is the description shown to (simulated) study subjects.
	AnomalyText string
	// PaperWindow, PaperCandExhaustive and PaperCandASAP record Table 2's
	// reported window size and candidate counts at 1200 px.
	PaperWindow         int
	PaperCandExhaustive int
	PaperCandASAP       int
	// UserStudy marks the five datasets used in Section 5.1.
	UserStudy bool

	gen func(n int, rng *rand.Rand) []float64
}

// Generate synthesizes the dataset at its default size.
func (s Spec) Generate(seed int64) *timeseries.Series {
	return s.GenerateN(s.N, seed)
}

// GenerateN synthesizes the dataset with n points. Anomaly positions scale
// with n so AnomalyRegion stays meaningful at any size.
func (s Spec) GenerateN(n int, seed int64) *timeseries.Series {
	if n < 1 {
		n = s.N
	}
	rng := rand.New(rand.NewSource(seed))
	values := s.gen(n, rng)
	start := time.Date(2014, 10, 1, 0, 0, 0, 0, time.UTC)
	return timeseries.New(s.Name, start, s.Interval, values)
}

// AnomalySpan returns the [start, end) index range of the labeled anomaly
// for an n-point instance, or (-1, -1) when none exists.
func (s Spec) AnomalySpan(n int) (int, int) {
	if s.AnomalyFracStart < 0 {
		return -1, -1
	}
	lo := int(s.AnomalyFracStart * float64(n))
	hi := int(s.AnomalyFracEnd * float64(n))
	if hi <= lo {
		hi = lo + 1
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// AnomalyRegion returns which of five equal-width regions contains the
// center of the anomaly (0-4), the answer key of the user studies, or -1
// when the dataset has no labeled anomaly.
func (s Spec) AnomalyRegion(n int) int {
	lo, hi := s.AnomalySpan(n)
	if lo < 0 {
		return -1
	}
	center := (lo + hi) / 2
	region := center * 5 / n
	if region > 4 {
		region = 4
	}
	return region
}

// Catalog returns all eleven datasets in Table 2 order (largest first).
func Catalog() []Spec { return append([]Spec(nil), catalog...) }

// ByName finds a dataset by its Table 2 name.
func ByName(name string) (Spec, bool) {
	for _, s := range catalog {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// UserStudySpecs returns the five datasets of the Section 5.1 studies in
// figure order: Taxi, Power, Sine, EEG, Temp.
func UserStudySpecs() []Spec {
	order := []string{"Taxi", "Power", "Sine", "EEG", "Temp"}
	out := make([]Spec, 0, len(order))
	for _, name := range order {
		s, ok := ByName(name)
		if !ok {
			panic(fmt.Sprintf("datasets: user-study dataset %q missing from catalog", name))
		}
		out = append(out, s)
	}
	return out
}

var catalog = []Spec{
	{
		Name:                "gas sensor",
		Description:         "Chemical sensor exposed to a gas mixture",
		N:                   4_208_261,
		Interval:            10 * time.Millisecond,
		DurationLabel:       "12 hours",
		AnomalyFracStart:    -1,
		AnomalyFracEnd:      -1,
		PaperWindow:         26,
		PaperCandExhaustive: 115,
		PaperCandASAP:       7,
		gen:                 genGasSensor,
	},
	{
		Name:                "EEG",
		Description:         "Excerpt of electrocardiogram",
		N:                   45_000,
		Interval:            4 * time.Millisecond,
		DurationLabel:       "180 sec",
		AnomalyFracStart:    0.55,
		AnomalyFracEnd:      0.60,
		AnomalyText:         "an abnormal pattern (a premature ventricular contraction)",
		PaperWindow:         22,
		PaperCandExhaustive: 119,
		PaperCandASAP:       21,
		UserStudy:           true,
		gen:                 genEEG,
	},
	{
		Name:                "Power",
		Description:         "Power consumption for a Dutch research facility in 1997",
		N:                   35_040,
		Interval:            15 * time.Minute,
		DurationLabel:       "35040 sec",
		AnomalyFracStart:    0.40,
		AnomalyFracEnd:      0.425,
		AnomalyText:         "a temporary dip in power demand during the Ascension Thursday holiday",
		PaperWindow:         16,
		PaperCandExhaustive: 115,
		PaperCandASAP:       23,
		UserStudy:           true,
		gen:                 genPower,
	},
	{
		Name:                "traffic data",
		Description:         "Vehicle traffic observed between two points for 4 months",
		N:                   32_075,
		Interval:            5 * time.Minute,
		DurationLabel:       "4 months",
		AnomalyFracStart:    -1,
		AnomalyFracEnd:      -1,
		PaperWindow:         84,
		PaperCandExhaustive: 120,
		PaperCandASAP:       6,
		gen:                 genTraffic,
	},
	{
		Name:                "machine temp",
		Description:         "Temperature of an internal component of an industrial machine",
		N:                   22_695,
		Interval:            5 * time.Minute,
		DurationLabel:       "70 days",
		AnomalyFracStart:    0.90,
		AnomalyFracEnd:      0.94,
		AnomalyText:         "a temperature collapse preceding a component failure",
		PaperWindow:         44,
		PaperCandExhaustive: 125,
		PaperCandASAP:       7,
		gen:                 genMachineTemp,
	},
	{
		Name:                "Twitter AAPL",
		Description:         "A collection of Twitter mentions of Apple",
		N:                   15_902,
		Interval:            5 * time.Minute,
		DurationLabel:       "2 months",
		AnomalyFracStart:    0.35,
		AnomalyFracEnd:      0.355,
		AnomalyText:         "an extreme spike in mention volume",
		PaperWindow:         1,
		PaperCandExhaustive: 120,
		PaperCandASAP:       7,
		gen:                 genTwitterAAPL,
	},
	{
		Name:                "ramp traffic",
		Description:         "Car count on a freeway ramp in Los Angeles",
		N:                   8_640,
		Interval:            5 * time.Minute,
		DurationLabel:       "1 month",
		AnomalyFracStart:    -1,
		AnomalyFracEnd:      -1,
		PaperWindow:         96,
		PaperCandExhaustive: 117,
		PaperCandASAP:       5,
		gen:                 genRampTraffic,
	},
	{
		Name:                "sim daily",
		Description:         "Simulated two week data with one abnormal day",
		N:                   4_033,
		Interval:            5 * time.Minute,
		DurationLabel:       "2 weeks",
		AnomalyFracStart:    0.50,
		AnomalyFracEnd:      0.5714, // one day of fourteen
		AnomalyText:         "one day whose pattern differs from every other day",
		PaperWindow:         72,
		PaperCandExhaustive: 100,
		PaperCandASAP:       5,
		gen:                 genSimDaily,
	},
	{
		Name:                "Taxi",
		Description:         "Number of NYC taxi passengers in 30 min buckets",
		N:                   3_600,
		Interval:            30 * time.Minute,
		DurationLabel:       "75 days",
		AnomalyFracStart:    0.72,
		AnomalyFracEnd:      0.8133, // the week of Thanksgiving (7 of 75 days)
		AnomalyText:         "a sustained drop in trip volume during the week of Thanksgiving",
		PaperWindow:         112,
		PaperCandExhaustive: 120,
		PaperCandASAP:       4,
		UserStudy:           true,
		gen:                 genTaxi,
	},
	{
		Name:                "Temp",
		Description:         "Monthly temperature in England from 1723 to 1970",
		N:                   2_976,
		Interval:            30 * 24 * time.Hour,
		DurationLabel:       "248 years",
		AnomalyFracStart:    0.80,
		AnomalyFracEnd:      1.0,
		AnomalyText:         "a sustained warming trend after the end of the Little Ice Age",
		PaperWindow:         112,
		PaperCandExhaustive: 120,
		PaperCandASAP:       4,
		UserStudy:           true,
		gen:                 genTemp,
	},
	{
		Name:                "Sine",
		Description:         "Noisy sine wave with an anomaly that is half the usual period",
		N:                   800,
		Interval:            time.Second,
		DurationLabel:       "800 sec",
		AnomalyFracStart:    0.40,
		AnomalyFracEnd:      0.46,
		AnomalyText:         "a region where the signal oscillates at twice its usual rate",
		PaperWindow:         64,
		PaperCandExhaustive: 79,
		PaperCandASAP:       6,
		UserStudy:           true,
		gen:                 genSine,
	},
}
