package dataset

import "math/rand"

// Compas reproduces the ProPublica COMPAS dataset: 6,172 defendants, 11
// features, predicting a high/low recidivism-risk score. The latent rule
// follows the dominant drivers reported for the real data: priors count, age,
// and juvenile offense counts.
func init() {
	register(spec{
		name: "compas",
		size: 6172,
		seed: 20240604,
		cats: []catCol{
			{name: "Sex", values: []string{"Male", "Female"}, weights: []float64{0.81, 0.19}},
			{name: "Race", values: []string{"AfricanAmerican", "Caucasian", "Hispanic", "Other"}, weights: []float64{0.51, 0.34, 0.08, 0.07}},
			{name: "ChargeDegree", values: []string{"F", "M"}, weights: []float64{0.64, 0.36}},
			{name: "AgeCat", values: []string{"<25", "25-45", ">45"}},
			{name: "Custody", values: []string{"jail", "prison", "none"}, weights: []float64{0.45, 0.20, 0.35}},
		},
		nums: []numCol{
			{name: "Age", buckets: 10, lo: 18.28313472037791, hi: 70.53252821474807},
			{name: "JuvFelCount", buckets: 4, lo: 0, hi: 3},
			{name: "JuvMisdCount", buckets: 4, lo: 0, hi: 3},
			{name: "JuvOtherCount", buckets: 4, lo: 0, hi: 3},
			{name: "PriorsCount", buckets: 10, lo: 0.05255182450352693, hi: 19.31617520659325},
			{name: "DaysInCustody", buckets: 10, lo: 0, hi: 100.99028284148503},
		},
		labels: []string{"low", "high"},
		gen:    genCompas,
	})
}

const (
	compasSex = iota
	compasRace
	compasCharge
	compasAgeCat
	compasCustody
)

const (
	compasAge = iota
	compasJuvFel
	compasJuvMisd
	compasJuvOther
	compasPriors
	compasDays
)

func genCompas(r *rand.Rand, row *rawRow) {
	s := registry["compas"]
	for c := range s.cats {
		row.cats[c] = choice(r, len(s.cats[c].values), s.cats[c].weights)
	}
	age := clamp(18+20*r.Float64()+10*absNorm(r), 18, 80)
	row.nums[compasAge] = age
	switch {
	case age < 25:
		row.cats[compasAgeCat] = 0
	case age <= 45:
		row.cats[compasAgeCat] = 1
	default:
		row.cats[compasAgeCat] = 2
	}
	juv := func(p float64, max int) float64 {
		if flip(r, p) {
			return float64(1 + r.Intn(max))
		}
		return 0
	}
	// Younger defendants carry more juvenile counts.
	juvBoost := 0.0
	if age < 25 {
		juvBoost = 0.15
	}
	row.nums[compasJuvFel] = juv(0.06+juvBoost, 3)
	row.nums[compasJuvMisd] = juv(0.08+juvBoost, 3)
	row.nums[compasJuvOther] = juv(0.09+juvBoost, 3)

	priors := clamp(8*r.Float64()*r.Float64()+3*absNorm(r), 0, 38)
	if age > 40 {
		priors *= 1.3 // longer record history
	}
	row.nums[compasPriors] = priors

	days := 0.0
	if row.cats[compasCustody] != 2 {
		days = clamp(2+100*r.Float64()*r.Float64(), 0, 800)
	}
	row.nums[compasDays] = days

	score := -0.8
	score += priors / 4.5
	if age < 25 {
		score += 1.1
	}
	if age > 45 {
		score -= 0.8
	}
	score += 0.5 * (row.nums[compasJuvFel] + 0.5*row.nums[compasJuvMisd])
	if row.cats[compasCharge] == 0 {
		score += 0.3
	}
	if days > 100 {
		score += 0.3
	}
	if flip(r, sigmoid(score)) {
		row.label = 1
	} else {
		row.label = 0
	}
}

// absNorm returns |N(0,1)| — a half-normal sample.
func absNorm(r *rand.Rand) float64 {
	v := r.NormFloat64()
	if v < 0 {
		return -v
	}
	return v
}
