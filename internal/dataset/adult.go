package dataset

import "math/rand"

// Adult reproduces the UCI census-income dataset: 32,526 rows, 14 features,
// predicting whether yearly income exceeds 50K. Age, hours-per-week and the
// capital columns are raw numerics; the latent rule rewards education,
// age/experience, managerial occupations and long hours, with marital status
// the strongest single signal, as in the real data.
func init() {
	register(spec{
		name: "adult",
		size: 32526,
		seed: 20240602,
		cats: []catCol{
			{name: "Workclass", values: []string{"Private", "SelfEmp", "Gov", "Other"}, weights: []float64{0.70, 0.11, 0.13, 0.06}},
			{name: "Education", values: []string{"HS", "SomeCollege", "Bachelors", "Masters", "Doctorate", "Dropout"}, weights: []float64{0.32, 0.22, 0.17, 0.06, 0.02, 0.21}},
			{name: "MaritalStatus", values: []string{"Married", "NeverMarried", "Divorced", "Widowed"}, weights: []float64{0.47, 0.33, 0.14, 0.06}},
			{name: "Occupation", values: []string{"Managerial", "Professional", "Clerical", "Service", "Manual", "Sales"}, weights: []float64{0.13, 0.13, 0.15, 0.17, 0.28, 0.14}},
			{name: "Relationship", values: []string{"Husband", "Wife", "OwnChild", "NotInFamily", "Other"}, weights: []float64{0.40, 0.05, 0.15, 0.26, 0.14}},
			{name: "Race", values: []string{"White", "Black", "AsianPacific", "Other"}, weights: []float64{0.85, 0.10, 0.03, 0.02}},
			{name: "Sex", values: []string{"Male", "Female"}, weights: []float64{0.67, 0.33}},
			{name: "NativeCountry", values: []string{"US", "Mexico", "Other"}, weights: []float64{0.90, 0.02, 0.08}},
			{name: "EducationTier", values: []string{"low", "mid", "high"}},
		},
		nums: []numCol{
			{name: "Age", buckets: 10, lo: 17, hi: 83.65886067255492},
			{name: "HoursPerWeek", buckets: 10, lo: 1, hi: 88.45104788402456},
			{name: "CapitalGain", buckets: 10, lo: 0, hi: 22993.009195962568},
			{name: "CapitalLoss", buckets: 10, lo: 0, hi: 3496.0552392911427},
			{name: "FnlWgt", buckets: 10, lo: 12000.78604275095, hi: 311996.56092739216},
		},
		labels: []string{"<=50K", ">50K"},
		order: []string{"Age", "Workclass", "FnlWgt", "Education", "EducationTier", "MaritalStatus",
			"Occupation", "Relationship", "Race", "Sex", "CapitalGain", "CapitalLoss",
			"HoursPerWeek", "NativeCountry"},
		gen: genAdult,
	})
}

const (
	adultWorkclass = iota
	adultEducation
	adultMarital
	adultOccupation
	adultRelationship
	adultRace
	adultSex
	adultCountry
	adultEduTier
)

const (
	adultAge = iota
	adultHours
	adultCapGain
	adultCapLoss
	adultFnlWgt
)

func genAdult(r *rand.Rand, row *rawRow) {
	s := registry["adult"]
	for c := range s.cats {
		row.cats[c] = choice(r, len(s.cats[c].values), s.cats[c].weights)
	}
	// EducationTier is a deterministic function of Education — a feature
	// association relative keys can exploit but full-space formal
	// explanations cannot.
	switch row.cats[adultEducation] {
	case 5, 0: // Dropout, HS
		row.cats[adultEduTier] = 0
	case 1, 2: // SomeCollege, Bachelors
		row.cats[adultEduTier] = 1
	default: // Masters, Doctorate
		row.cats[adultEduTier] = 2
	}
	// Relationship is correlated with marital status and sex.
	if row.cats[adultMarital] == 0 { // Married
		if row.cats[adultSex] == 0 {
			row.cats[adultRelationship] = 0 // Husband
		} else {
			row.cats[adultRelationship] = 1 // Wife
		}
	} else if row.cats[adultRelationship] < 2 {
		row.cats[adultRelationship] = 3
	}

	age := clamp(17+42*r.Float64()+8*r.NormFloat64(), 17, 90)
	row.nums[adultAge] = age
	hours := clamp(40+12*r.NormFloat64(), 1, 99)
	if row.cats[adultOccupation] == 0 || row.cats[adultOccupation] == 1 {
		hours = clamp(hours+5, 1, 99)
	}
	row.nums[adultHours] = hours
	capGain := 0.0
	if flip(r, 0.08) {
		capGain = clamp(3000+20000*r.Float64(), 0, 99999)
	}
	row.nums[adultCapGain] = capGain
	capLoss := 0.0
	if flip(r, 0.05) {
		capLoss = clamp(500+3000*r.Float64(), 0, 4500)
	}
	row.nums[adultCapLoss] = capLoss
	row.nums[adultFnlWgt] = clamp(12000+300000*r.Float64(), 12000, 990000)

	score := -2.2
	switch row.cats[adultEduTier] {
	case 1:
		score += 1.0
	case 2:
		score += 2.2
	}
	if row.cats[adultMarital] == 0 {
		score += 1.8
	}
	if row.cats[adultOccupation] == 0 {
		score += 0.9
	}
	if row.cats[adultOccupation] == 1 {
		score += 0.7
	}
	score += (age - 38) / 25
	score += (hours - 40) / 30
	if capGain > 5000 {
		score += 2.0
	}
	if capLoss > 1500 {
		score += 0.6
	}
	if row.cats[adultSex] == 1 {
		score -= 0.4
	}
	if flip(r, sigmoid(score)) {
		row.label = 1
	} else {
		row.label = 0
	}
}
