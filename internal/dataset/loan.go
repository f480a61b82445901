package dataset

import "math/rand"

// Loan reproduces the Kaggle loan-eligibility dataset used throughout the
// paper's running example: 614 applications, 11 features, binary decision.
// Income, CoIncome and LoanAmount are raw numerics (bucketed at load time, so
// the Fig. 3h/3i #-bucket sweeps apply to them); the latent rule approves
// applications with good credit history whose household income covers the
// requested amount, mirroring how the real dataset behaves.
func init() {
	register(spec{
		name: "loan",
		size: 614,
		seed: 20240601,
		cats: []catCol{
			{name: "Gender", values: []string{"Male", "Female"}, weights: []float64{0.8, 0.2}},
			{name: "Married", values: []string{"No", "Yes"}, weights: []float64{0.35, 0.65}},
			{name: "Dependents", values: []string{"0", "1", "2", "3+"}, weights: []float64{0.57, 0.17, 0.17, 0.09}},
			{name: "Education", values: []string{"Graduate", "NotGraduate"}, weights: []float64{0.78, 0.22}},
			{name: "SelfEmployed", values: []string{"No", "Yes"}, weights: []float64{0.86, 0.14}},
			{name: "Credit", values: []string{"poor", "good"}},
			{name: "LoanTerm", values: []string{"120", "180", "240", "300", "360"}, weights: []float64{0.04, 0.09, 0.02, 0.02, 0.83}},
			{name: "Area", values: []string{"Urban", "Semiurban", "Rural"}, weights: []float64{0.33, 0.38, 0.29}},
		},
		nums: []numCol{
			{name: "Income", buckets: 10, lo: 0.5, hi: 12},
			{name: "CoIncome", buckets: 10, lo: 0, hi: 5.445500743041488},
			{name: "LoanAmount", buckets: 10, lo: 4.66833851569851, hi: 35.133726844711596},
		},
		labels: []string{"Denied", "Approved"},
		order: []string{"Gender", "Married", "Dependents", "Education", "SelfEmployed",
			"Income", "CoIncome", "Credit", "LoanAmount", "LoanTerm", "Area"},
		gen: genLoan,
	})
}

const (
	loanGender = iota
	loanMarried
	loanDependents
	loanEducation
	loanSelfEmployed
	loanCredit
	loanTerm
	loanArea
)

const (
	loanIncome = iota
	loanCoIncome
	loanAmount
)

func genLoan(r *rand.Rand, row *rawRow) {
	s := registry["loan"]
	for c := range s.cats {
		row.cats[c] = choice(r, len(s.cats[c].values), s.cats[c].weights)
	}
	// Credit history correlates with education and marriage (feature
	// associations the relative keys can exploit).
	pGood := 0.72
	if row.cats[loanEducation] == 0 { // Graduate
		pGood += 0.08
	}
	if row.cats[loanMarried] == 1 {
		pGood += 0.05
	}
	if flip(r, pGood) {
		row.cats[loanCredit] = 1
	} else {
		row.cats[loanCredit] = 0
	}

	// Income in thousands: log-normal-ish, higher for graduates and urban.
	base := 2.0 + 4.0*r.Float64() + 2.0*r.NormFloat64()
	if row.cats[loanEducation] == 0 {
		base += 1.2
	}
	if row.cats[loanArea] == 0 { // Urban
		base += 0.8
	}
	row.nums[loanIncome] = clamp(base, 0.5, 12)

	co := 0.0
	if row.cats[loanMarried] == 1 || flip(r, 0.25) {
		co = clamp(1.0+2.0*r.Float64()+r.NormFloat64(), 0, 8)
	}
	row.nums[loanCoIncome] = co

	// Requested amount scales with income.
	amt := clamp(4+2.2*(row.nums[loanIncome]+0.5*co)*(0.6+0.8*r.Float64()), 2, 40)
	row.nums[loanAmount] = amt

	// Latent approval rule: credit history dominates; income must cover the
	// amount relative to the term; urban semiurban slightly favored.
	score := 0.2
	if row.cats[loanCredit] == 1 {
		score += 1.6
	} else {
		score -= 1.6
	}
	// Income outweighs credit at the extremes, so the decision boundary
	// genuinely needs both factors (poor credit + high income is usually
	// approved, good credit + low income denied — as in the real data). The
	// effects are axis-aligned so the bucketed features remain learnable.
	score += clamp((row.nums[loanIncome]-4.5)/1.5, -2.2, 2.2)
	score -= clamp((amt-18)/8, -1.0, 1.0)
	if row.cats[loanArea] == 1 { // Semiurban approved more often in the data
		score += 0.5
	}
	if row.cats[loanDependents] >= 2 {
		score -= 0.4
	}
	// Sharpened boundary: with only 614 rows the model can otherwise not
	// learn the affordability interaction at all.
	if flip(r, sigmoid(2.0*score)) {
		row.label = 1
	} else {
		row.label = 0
	}
}
