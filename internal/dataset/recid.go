package dataset

import "math/rand"

// Recid reproduces the Schmidt & Witte North Carolina recidivism dataset:
// 6,340 released prisoners, 15 features, predicting recidivism. Feature names
// follow the original codebook (WHITE, ALCHY, JUNKY, SUPER, MARRIED, FELON,
// WORKREL, PROPTY, PERSON, MALE, PRIORS, SCHOOL, RULE, AGE, TSERVD).
func init() {
	register(spec{
		name: "recid",
		size: 6340,
		seed: 20240605,
		cats: []catCol{
			{name: "White", values: []string{"no", "yes"}, weights: []float64{0.45, 0.55}},
			{name: "Alchy", values: []string{"no", "yes"}, weights: []float64{0.77, 0.23}},
			{name: "Junky", values: []string{"no", "yes"}, weights: []float64{0.79, 0.21}},
			{name: "Super", values: []string{"no", "yes"}, weights: []float64{0.46, 0.54}},
			{name: "Married", values: []string{"no", "yes"}, weights: []float64{0.76, 0.24}},
			{name: "Felon", values: []string{"no", "yes"}, weights: []float64{0.69, 0.31}},
			{name: "WorkRel", values: []string{"no", "yes"}, weights: []float64{0.49, 0.51}},
			{name: "Propty", values: []string{"no", "yes"}, weights: []float64{0.55, 0.45}},
			{name: "Person", values: []string{"no", "yes"}, weights: []float64{0.93, 0.07}},
			{name: "Male", values: []string{"no", "yes"}, weights: []float64{0.08, 0.92}},
		},
		nums: []numCol{
			{name: "Priors", buckets: 10, lo: 0.0016698473366994065, hi: 10.574758740379862},
			{name: "School", buckets: 10, lo: 1, hi: 18.01701752176459},
			{name: "Rule", buckets: 10, lo: 7.443384663444628e-05, hi: 2.981525144035864},
			{name: "Age", buckets: 10, lo: 190, hi: 578.5695565646878},
			{name: "TimeServed", buckets: 10, lo: 3.0002959330796393, hi: 22.823564352166695},
		},
		labels: []string{"no_recid", "recid"},
		gen:    genRecid,
	})
}

const (
	recidWhite = iota
	recidAlchy
	recidJunky
	recidSuper
	recidMarried
	recidFelon
	recidWorkRel
	recidPropty
	recidPerson
	recidMale
)

const (
	recidPriors = iota
	recidSchool
	recidRule
	recidAge
	recidTServd
)

func genRecid(r *rand.Rand, row *rawRow) {
	s := registry["recid"]
	for c := range s.cats {
		row.cats[c] = choice(r, len(s.cats[c].values), s.cats[c].weights)
	}
	// Property and person offenses are near mutually exclusive.
	if row.cats[recidPropty] == 1 && row.cats[recidPerson] == 1 {
		row.cats[recidPerson] = 0
	}
	priors := clamp(4*r.Float64()*r.Float64()+2*absNorm(r), 0, 30)
	row.nums[recidPriors] = priors
	row.nums[recidSchool] = clamp(6+5*r.Float64()+2*r.NormFloat64(), 1, 19)
	rule := clamp(3*r.Float64()*r.Float64(), 0, 20)
	row.nums[recidRule] = rule
	ageMonths := clamp(200+180*r.Float64()+70*r.NormFloat64(), 190, 900)
	row.nums[recidAge] = ageMonths
	row.nums[recidTServd] = clamp(3+20*r.Float64()*r.Float64(), 0, 240)

	score := -2.4
	score += priors / 1.8
	score += rule / 4.0
	score -= (ageMonths - 320) / 160
	if row.cats[recidJunky] == 1 {
		score += 1.1
	}
	if row.cats[recidAlchy] == 1 {
		score += 0.5
	}
	if row.cats[recidMarried] == 1 {
		score -= 0.7
	}
	if row.cats[recidFelon] == 1 {
		score -= 0.5 // felons in the original data recidivate less
	}
	if row.cats[recidSuper] == 1 {
		score -= 0.3
	}
	if row.cats[recidMale] == 1 {
		score += 0.9
	}
	// Sharpen the decision boundary so the rule is learnable (the real
	// dataset's recidivism signal is strong in Priors/Age/Rule).
	if flip(r, sigmoid(1.8*score)) {
		row.label = 1
	} else {
		row.label = 0
	}
}
