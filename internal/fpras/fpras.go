// Package fpras holds the statistical machinery the paper's positive
// results plug their samplers into: the Chernoff-derived sample counts
// of the fixed-sample Monte Carlo construction (the textbook template
// behind Theorems 5.1(2), 6.1(2), 7.1(2) and 7.5) and the polynomial
// lower bounds on positive target probabilities (Lemmas 5.3, 6.3, 7.3,
// E.3, E.10 and D.8) that turn a Monte Carlo mean into an FPRAS.
//
// The execution of the draw loops — fixed-sample, the Dagum–Karp–
// Luby–Ross stopping rule and full 𝒜𝒜 estimator, and the per-fact
// marginal counter — lives in internal/engine, which adds context
// cancellation, worker parallelism and central substream derivation on
// top of the math here.
package fpras

import (
	"fmt"
	"math"
)

// ChernoffSamples returns a sample count sufficient for a multiplicative
// (ε, δ)-guarantee on a Bernoulli mean known to be ≥ pmin (or zero):
//
//	N = ⌈3 · ln(2/δ) / (ε² · pmin)⌉.
//
// This is the generalized zero-one estimator bound; combined with the
// paper's polynomial lower bounds on the target probability it yields
// the FPRAS constructions. Panics unless 0 < ε, 0 < δ < 1, 0 < pmin ≤ 1.
func ChernoffSamples(eps, delta, pmin float64) int {
	if eps <= 0 || delta <= 0 || delta >= 1 || pmin <= 0 || pmin > 1 {
		panic(fmt.Sprintf("fpras: invalid parameters eps=%v delta=%v pmin=%v", eps, delta, pmin))
	}
	n := ChernoffBound(eps, delta, pmin)
	if n > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(math.Ceil(n))
}

// ChernoffBound is ChernoffSamples' count before rounding and
// saturation, 3·ln(2/δ)/(ε²·pmin), unchecked: +Inf when pmin is 0.
func ChernoffBound(eps, delta, pmin float64) float64 {
	return 3 * math.Log(2/delta) / (eps * eps * pmin)
}

// The paper's polynomial lower bounds on positive target probabilities,
// used as pmin for the Chernoff construction. They shrink exponentially
// in ‖Q‖ (a constant in data complexity) and polynomially in ‖D‖, and
// can underflow to 0 for large inputs — callers should then prefer the
// stopping rule.

// LowerBoundRRFreqPrimary is Lemma 5.3 (and 6.3): positive repair (and
// sequence) relative frequencies under primary keys are ≥ 1/(2‖D‖)^‖Q‖.
func LowerBoundRRFreqPrimary(dbSize, querySize int) float64 {
	return math.Pow(2*float64(dbSize), -float64(querySize))
}

// LowerBoundSingletonPrimary is Lemma E.3 (and E.10): under primary
// keys with singleton operations the bound improves to 1/‖D‖^‖Q‖.
func LowerBoundSingletonPrimary(dbSize, querySize int) float64 {
	return math.Pow(float64(dbSize), -float64(querySize))
}

// LowerBoundSingletonFD is Lemma D.8: under arbitrary FDs with
// singleton operations, positive M^{uo,1} probabilities are
// ≥ 1/(e·‖D‖)^‖Q‖.
func LowerBoundSingletonFD(dbSize, querySize int) float64 {
	return math.Pow(math.E*float64(dbSize), -float64(querySize))
}
