package dataset

import "math/rand"

// German reproduces the Statlog German-credit dataset: 1,000 rows, 21
// features, classifying applicants into good/bad credit risk. The latent rule
// follows the well-known drivers of the real data: checking-account status,
// credit history, duration and savings.
func init() {
	register(spec{
		name: "german",
		size: 1000,
		seed: 20240603,
		cats: []catCol{
			{name: "CheckingStatus", values: []string{"<0", "0-200", ">200", "none"}, weights: []float64{0.27, 0.27, 0.06, 0.40}},
			{name: "CreditHistory", values: []string{"critical", "delayed", "existing", "allpaid"}, weights: []float64{0.29, 0.09, 0.53, 0.09}},
			{name: "Purpose", values: []string{"car", "furniture", "radio_tv", "education", "business", "other"}, weights: []float64{0.33, 0.18, 0.28, 0.06, 0.10, 0.05}},
			{name: "Savings", values: []string{"<100", "100-500", "500-1000", ">1000", "unknown"}, weights: []float64{0.60, 0.10, 0.06, 0.05, 0.19}},
			{name: "Employment", values: []string{"unemployed", "<1y", "1-4y", "4-7y", ">7y"}, weights: []float64{0.06, 0.17, 0.34, 0.17, 0.26}},
			{name: "PersonalStatus", values: []string{"male_single", "male_married", "female", "male_divorced"}, weights: []float64{0.55, 0.09, 0.31, 0.05}},
			{name: "OtherParties", values: []string{"none", "coapplicant", "guarantor"}, weights: []float64{0.91, 0.04, 0.05}},
			{name: "PropertyMagnitude", values: []string{"realestate", "lifeinsurance", "car", "none"}, weights: []float64{0.28, 0.23, 0.33, 0.16}},
			{name: "OtherPaymentPlans", values: []string{"bank", "stores", "none"}, weights: []float64{0.14, 0.05, 0.81}},
			{name: "Housing", values: []string{"rent", "own", "free"}, weights: []float64{0.18, 0.71, 0.11}},
			{name: "Job", values: []string{"unskilled", "skilled", "management"}, weights: []float64{0.22, 0.63, 0.15}},
			{name: "Telephone", values: []string{"none", "yes"}, weights: []float64{0.60, 0.40}},
			{name: "ForeignWorker", values: []string{"yes", "no"}, weights: []float64{0.96, 0.04}},
			{name: "RiskTier", values: []string{"low", "mid", "high"}},
		},
		nums: []numCol{
			{name: "Duration", buckets: 10, lo: 4, hi: 47.793422639007815},
			{name: "CreditAmount", buckets: 10, lo: 550.5829579936329, hi: 10294.562871208114},
			{name: "InstallmentRate", buckets: 4, lo: 1, hi: 4},
			{name: "ResidenceSince", buckets: 4, lo: 1, hi: 4},
			{name: "Age", buckets: 10, lo: 19, hi: 74.43059018148459},
			{name: "ExistingCredits", buckets: 4, lo: 1, hi: 4},
			{name: "NumDependents", buckets: 2, lo: 1, hi: 2},
		},
		labels: []string{"bad", "good"},
		gen:    genGerman,
	})
}

const (
	germanChecking = iota
	germanHistory
	germanPurpose
	germanSavings
	germanEmployment
	germanPersonal
	germanOtherParties
	germanProperty
	germanPlans
	germanHousing
	germanJob
	germanPhone
	germanForeign
	germanRiskTier
)

const (
	germanDuration = iota
	germanAmount
	germanInstallment
	germanResidence
	germanAge
	germanCredits
	germanDependents
)

func genGerman(r *rand.Rand, row *rawRow) {
	s := registry["german"]
	for c := range s.cats {
		row.cats[c] = choice(r, len(s.cats[c].values), s.cats[c].weights)
	}
	dur := clamp(4+32*r.Float64()+8*r.NormFloat64(), 4, 72)
	row.nums[germanDuration] = dur
	amount := clamp(250+150*dur*(0.5+r.Float64()), 250, 18500)
	row.nums[germanAmount] = amount
	row.nums[germanInstallment] = float64(1 + r.Intn(4))
	row.nums[germanResidence] = float64(1 + r.Intn(4))
	row.nums[germanAge] = clamp(19+30*r.Float64()+8*r.NormFloat64(), 19, 75)
	row.nums[germanCredits] = float64(1 + r.Intn(4))
	row.nums[germanDependents] = float64(1 + r.Intn(2))

	score := 1.2
	switch row.cats[germanChecking] {
	case 0:
		score -= 1.5
	case 1:
		score -= 0.6
	case 3:
		score += 0.9
	}
	switch row.cats[germanHistory] {
	case 0: // critical (many credits paid back) — positive in the real data
		score += 0.8
	case 3: // all paid at other banks
		score -= 0.5
	}
	switch row.cats[germanSavings] {
	case 0:
		score -= 0.5
	case 3, 4:
		score += 0.5
	}
	score -= (dur - 20) / 18
	score -= (amount - 3000) / 6000
	if row.cats[germanEmployment] >= 3 {
		score += 0.4
	}
	if row.nums[germanAge] < 25 {
		score -= 0.4
	}
	// RiskTier summarizes checking+savings deterministically (association).
	switch {
	case row.cats[germanChecking] >= 2 && row.cats[germanSavings] >= 2:
		row.cats[germanRiskTier] = 0
	case row.cats[germanChecking] == 0 && row.cats[germanSavings] == 0:
		row.cats[germanRiskTier] = 2
	default:
		row.cats[germanRiskTier] = 1
	}
	if flip(r, sigmoid(score)) {
		row.label = 1
	} else {
		row.label = 0
	}
}
