package core

import (
	"math/big"
	"math/rand"

	"repro/internal/rel"
)

// This file implements arbitrary repairing Markov chain generators
// (Definition 3.5 in full generality): the caller chooses the
// probability of each available operation, subject only to the
// locality condition that weights depend on the current database
// s(D) — exactly the freedom the original operational framework [5]
// exposes and the intro's source-trust example exercises. The three
// uniform generators of Section 4 are the special cases the paper's
// complexity results are about; weighted chains are provided for
// modelling (e.g. source trust) and carry the Theorem 4.1/4.2 caveat:
// exact answering is ♯P-hard and, for adversarial weights, not even
// approximable — sampling remains efficient, guarantees do not.

// WeightFn assigns a positive weight to every justified operation
// available at the sub-database s; the chain applies op with
// probability weight(op)/Σweights. Weights must be positive and must
// depend only on (s, op) — not on the path taken to s — so that the
// chain is well-defined on the state DAG (every tree node with the
// same residual database gets the same outgoing distribution).
type WeightFn func(d *rel.Database, s rel.Subset, op Op) *big.Rat

// UniformWeights is the WeightFn of M^uo: every operation weighs 1.
func UniformWeights(*rel.Database, rel.Subset, Op) *big.Rat { return big.NewRat(1, 1) }

// TrustWeights builds distrust-proportional weights: each fact carries
// a reliability trust(f) ∈ (0, 1), and the weight of removing a set F
// is Π_{f∈F} (1 − trust(f)) — the less a fact is trusted, the likelier
// every operation deleting it. More elaborate policies (e.g. the
// introduction's exact 3/8–3/8–1/4 split, which tie-breaks between the
// two survivors when both facts are trusted) are written directly as
// WeightFn closures; see the weighted-engine tests.
func TrustWeights(trust func(f rel.Fact) *big.Rat) WeightFn {
	one := big.NewRat(1, 1)
	return func(d *rel.Database, _ rel.Subset, op Op) *big.Rat {
		w := new(big.Rat).Sub(one, trust(d.Fact(op.I)))
		if !op.Singleton() {
			w.Mul(w, new(big.Rat).Sub(one, trust(d.Fact(op.J))))
		}
		return w
	}
}

// opWeights returns the weights of ops at s and their sum. Nil weights
// stand for M^uo: no per-op weights, and the sum len(ops). It panics
// if a weight is non-positive.
func (inst *Instance) opWeights(weights WeightFn, s rel.Subset, ops []Op) ([]*big.Rat, *big.Rat) {
	if weights == nil {
		return nil, new(big.Rat).SetInt64(int64(len(ops)))
	}
	ws := make([]*big.Rat, len(ops))
	total := new(big.Rat)
	for i, op := range ops {
		ws[i] = weights(inst.D, s, op)
		if ws[i].Sign() <= 0 {
			panic("core: WeightFn must return positive weights")
		}
		total.Add(total, ws[i])
	}
	return ws, total
}

// ProbWeighted computes the probability that the weighted chain ends
// in a state satisfying pred, exactly, by the memoised DAG recursion
//
//	p(S) = [pred(S)]                              if S is a leaf
//	p(S) = Σ_op w(op)·p(op(S)) / Σ_op w(op)       otherwise,
//
// which is exact on the DAG because the chain's transition law is a
// function of the state. Nil weights are M^uo's: every operation
// weighs 1. It panics if a weight is non-positive.
func (inst *Instance) ProbWeighted(weights WeightFn, singleton bool, limit int, pred func(rel.Subset) bool) (*big.Rat, error) {
	budget := stateBudget{limit: limit}
	memo := make(map[string]*big.Rat)
	var recur func(rel.Subset) (*big.Rat, error)
	recur = func(s rel.Subset) (*big.Rat, error) {
		key := s.Key()
		if v, ok := memo[key]; ok {
			return v, nil
		}
		if err := budget.charge(); err != nil {
			return nil, err
		}
		ops := inst.JustifiedOps(s, singleton)
		res := new(big.Rat)
		if len(ops) == 0 {
			if pred(s) {
				res.SetInt64(1)
			}
		} else {
			ws, total := inst.opWeights(weights, s, ops)
			for i, op := range ops {
				p, err := recur(op.Apply(s))
				if err != nil {
					return nil, err
				}
				if ws != nil {
					p = new(big.Rat).Mul(ws[i], p)
				}
				res.Add(res, p)
			}
			res.Quo(res, total)
		}
		memo[key] = res
		return res, nil
	}
	return recur(inst.Full())
}

// SemanticsWeighted computes the exact repair distribution [[D]]_M of
// the weighted chain by forward-propagating path probabilities through
// the state DAG in decreasing-cardinality order (every operation
// strictly shrinks the state). Nil weights are M^uo's.
func (inst *Instance) SemanticsWeighted(weights WeightFn, singleton bool, limit int) ([]RepairProb, error) {
	type entry struct {
		s    rel.Subset
		mass *big.Rat
	}
	mass := map[string]*entry{}
	full := inst.Full()
	mass[full.Key()] = &entry{s: full, mass: big.NewRat(1, 1)}
	byCard := map[int][]*entry{full.Count(): {mass[full.Key()]}}
	leaves := map[string]*entry{}
	budget := stateBudget{limit: limit}
	for card := full.Count(); card >= 0; card-- {
		for _, en := range byCard[card] {
			if err := budget.charge(); err != nil {
				return nil, err
			}
			ops := inst.JustifiedOps(en.s, singleton)
			if len(ops) == 0 {
				k := en.s.Key()
				if l, ok := leaves[k]; ok {
					l.mass.Add(l.mass, en.mass)
				} else {
					leaves[k] = &entry{s: en.s, mass: new(big.Rat).Set(en.mass)}
				}
				continue
			}
			ws, total := inst.opWeights(weights, en.s, ops)
			base := new(big.Rat).Quo(en.mass, total)
			for i, op := range ops {
				share := base
				if ws != nil {
					share = new(big.Rat).Mul(base, ws[i])
				}
				t := op.Apply(en.s)
				k := t.Key()
				if nx, ok := mass[k]; ok {
					nx.mass.Add(nx.mass, share)
				} else {
					nx = &entry{s: t, mass: new(big.Rat).Set(share)}
					mass[k] = nx
					byCard[t.Count()] = append(byCard[t.Count()], nx)
				}
			}
		}
	}
	out := make([]RepairProb, 0, len(leaves))
	for _, l := range leaves {
		out = append(out, RepairProb{Repair: l.s, Prob: l.mass})
	}
	sortRepairProbs(out)
	return out, nil
}

// SampleWeighted runs one walk of the weighted chain, returning the
// sequence and its result — the efficient sampler exists for any
// locally computable weights (the Lemma 7.2 argument needs only
// locality), but the paper warns the target probability can be
// exponentially small even for uniform weights over FDs
// (Proposition D.6), so estimates carry no multiplicative guarantee in
// general.
func (inst *Instance) SampleWeighted(weights WeightFn, singleton bool, rng *rand.Rand) (Sequence, rel.Subset) {
	s := inst.Full()
	var seq Sequence
	for {
		ops := inst.JustifiedOps(s, singleton)
		if len(ops) == 0 {
			return seq, s
		}
		// Scale the rational weights to a common denominator so the
		// draw is an exact integer-weighted choice.
		ws, _ := inst.opWeights(weights, s, ops)
		lcm := big.NewInt(1)
		for _, w := range ws {
			g := new(big.Int).GCD(nil, nil, lcm, w.Denom())
			lcm.Div(lcm, g)
			lcm.Mul(lcm, w.Denom())
		}
		ints := make([]*big.Int, len(ops))
		total := big.NewInt(0)
		for i, w := range ws {
			v := new(big.Int).Div(lcm, w.Denom())
			v.Mul(v, w.Num())
			ints[i] = v
			total.Add(total, v)
		}
		r := new(big.Int).Rand(rng, total)
		op := ops[len(ops)-1]
		for i := range ops {
			if r.Cmp(ints[i]) < 0 {
				op = ops[i]
				break
			}
			r.Sub(r, ints[i])
		}
		seq = append(seq, op)
		s = op.Apply(s)
	}
}
