package core

import (
	"math/big"

	"repro/internal/rel"
)

// This file implements the state-DAG exact engines. For M^us and M^uo
// (and the singleton variants) the transition law at a sequence s
// depends only on the current database s(D): the available operations
// are the (s(D),Σ)-justified ones, and
//
//   - M^uo assigns each of them probability 1/|Ops_s(D,Σ)|
//     (Definition A.5), and
//   - M^us assigns P(s,s') = |CRS_{s'}|/|CRS_s|, and |CRS_s| is a
//     function of s(D) alone (the extensions of s depend only on s(D)).
//
// Sequences are exactly the paths of the DAG of reachable
// sub-databases, so leaf-level sums become memoised DAG recursions.

// StateLimitError is returned when an exact engine would exceed its
// state budget; callers should fall back to sampling.
type StateLimitError struct{ Limit int }

func (e StateLimitError) Error() string {
	return "core: exact engine exceeded state limit"
}

// dagEngine memoises per-state values across a DAG exploration.
type dagEngine struct {
	inst      *Instance
	singleton bool
	limit     int // 0 = unlimited
	states    int
}

func (e *dagEngine) charge() error {
	e.states++
	if e.limit > 0 && e.states > e.limit {
		return StateLimitError{Limit: e.limit}
	}
	return nil
}

// CountCRS computes |CRS(D,Σ)| (or |CRS^1| with singleton set) exactly
// by the DAG path-count recursion:
//
//	N(S) = 1                       if S |= Σ
//	N(S) = Σ_{op justified at S} N(op(S))   otherwise.
//
// limit bounds the number of distinct states explored (0 = unlimited).
func (inst *Instance) CountCRS(singleton bool, limit int) (*big.Int, error) {
	e := &dagEngine{inst: inst, singleton: singleton, limit: limit}
	memo := make(map[string]*big.Int)
	n, err := e.countCRS(inst.Full(), memo)
	if err != nil {
		return nil, err
	}
	return n, nil
}

func (e *dagEngine) countCRS(s rel.Subset, memo map[string]*big.Int) (*big.Int, error) {
	key := s.Key()
	if v, ok := memo[key]; ok {
		return v, nil
	}
	if err := e.charge(); err != nil {
		return nil, err
	}
	ops := e.inst.JustifiedOps(s, e.singleton)
	if len(ops) == 0 {
		// With pair removals, a state with no justified ops is
		// consistent. With singleton removals only, the same holds:
		// any surviving violation justifies its two singleton removals.
		one := big.NewInt(1)
		memo[key] = one
		return one, nil
	}
	total := big.NewInt(0)
	for _, op := range ops {
		n, err := e.countCRS(op.Apply(s), memo)
		if err != nil {
			return nil, err
		}
		total.Add(total, n)
	}
	memo[key] = total
	return total, nil
}

// CountCRSWhere computes |{s ∈ CRS(D,Σ) | pred(s(D))}| exactly, where
// pred is evaluated on the final (consistent) state.
func (inst *Instance) CountCRSWhere(singleton bool, limit int, pred func(rel.Subset) bool) (*big.Int, error) {
	e := &dagEngine{inst: inst, singleton: singleton, limit: limit}
	memo := make(map[string]*big.Int)
	var recur func(rel.Subset) (*big.Int, error)
	recur = func(s rel.Subset) (*big.Int, error) {
		key := s.Key()
		if v, ok := memo[key]; ok {
			return v, nil
		}
		if err := e.charge(); err != nil {
			return nil, err
		}
		ops := e.inst.JustifiedOps(s, e.singleton)
		var res *big.Int
		if len(ops) == 0 {
			if pred(s) {
				res = big.NewInt(1)
			} else {
				res = big.NewInt(0)
			}
		} else {
			res = big.NewInt(0)
			for _, op := range ops {
				n, err := recur(op.Apply(s))
				if err != nil {
					return nil, err
				}
				res.Add(res, n)
			}
		}
		memo[key] = res
		return res, nil
	}
	return recur(inst.Full())
}

// SRFreq computes the sequence relative frequency (Section 6):
// srfreq_{Σ,Q}(D,c̄) = |{s ∈ CRS | pred(s(D))}| / |CRS|, with pred the
// entailment check. With singleton set it computes srfreq^1
// (Appendix E.2). It equals P_{M^us,Q}(D,c̄) by Proposition A.4.
func (inst *Instance) SRFreq(singleton bool, limit int, pred func(rel.Subset) bool) (*big.Rat, error) {
	total, err := inst.CountCRS(singleton, limit)
	if err != nil {
		return nil, err
	}
	good, err := inst.CountCRSWhere(singleton, limit, pred)
	if err != nil {
		return nil, err
	}
	if total.Sign() == 0 {
		return nil, StateLimitError{} // cannot happen: ε is always complete for consistent D
	}
	return new(big.Rat).SetFrac(good, total), nil
}

// ProbUO computes P_{M^uo,Q}(D, c̄) exactly (with singleton set, the
// M^{uo,1} analogue): the probability that a run of the uniform-
// operations chain ends in a state satisfying pred. The recursion
//
//	p(S) = [pred(S)]                          if S is a leaf
//	p(S) = (1/|Ops(S)|) · Σ_op p(op(S))       otherwise
//
// is exact on the DAG because the chain's transition law is a function
// of the state.
func (inst *Instance) ProbUO(singleton bool, limit int, pred func(rel.Subset) bool) (*big.Rat, error) {
	e := &dagEngine{inst: inst, singleton: singleton, limit: limit}
	memo := make(map[string]*big.Rat)
	var recur func(rel.Subset) (*big.Rat, error)
	recur = func(s rel.Subset) (*big.Rat, error) {
		key := s.Key()
		if v, ok := memo[key]; ok {
			return v, nil
		}
		if err := e.charge(); err != nil {
			return nil, err
		}
		ops := e.inst.JustifiedOps(s, e.singleton)
		var res *big.Rat
		if len(ops) == 0 {
			if pred(s) {
				res = big.NewRat(1, 1)
			} else {
				res = new(big.Rat)
			}
		} else {
			sum := new(big.Rat)
			for _, op := range ops {
				p, err := recur(op.Apply(s))
				if err != nil {
					return nil, err
				}
				sum.Add(sum, p)
			}
			res = sum.Mul(sum, big.NewRat(1, int64(len(ops))))
		}
		memo[key] = res
		return res, nil
	}
	return recur(inst.Full())
}

// RepairProb pairs a repair (as a subset of D) with its probability.
type RepairProb struct {
	Repair rel.Subset
	Prob   *big.Rat
}

// SemanticsUO computes the operational semantics [[D]]_{M^uo} exactly
// (Definition 3.8): the distribution over operational repairs, by
// forward-propagating path probabilities through the state DAG in
// decreasing-cardinality order.
func (inst *Instance) SemanticsUO(singleton bool, limit int) ([]RepairProb, error) {
	type entry struct {
		s    rel.Subset
		mass *big.Rat
	}
	mass := map[string]*entry{}
	full := inst.Full()
	mass[full.Key()] = &entry{s: full, mass: big.NewRat(1, 1)}
	// Process states grouped by cardinality, largest first: every
	// operation strictly shrinks the state.
	byCard := make(map[int][]*entry)
	byCard[full.Count()] = []*entry{mass[full.Key()]}
	leaves := map[string]*entry{}
	states := 0
	for card := full.Count(); card >= 0; card-- {
		for _, en := range byCard[card] {
			states++
			if limit > 0 && states > limit {
				return nil, StateLimitError{Limit: limit}
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
			share := new(big.Rat).Mul(en.mass, big.NewRat(1, int64(len(ops))))
			for _, op := range ops {
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

// SemanticsUS computes [[D]]_{M^us} exactly: each repair's probability
// is the fraction of complete sequences leading to it, via forward
// path-count propagation.
func (inst *Instance) SemanticsUS(singleton bool, limit int) ([]RepairProb, error) {
	type entry struct {
		s     rel.Subset
		paths *big.Int
	}
	cnt := map[string]*entry{}
	full := inst.Full()
	cnt[full.Key()] = &entry{s: full, paths: big.NewInt(1)}
	byCard := map[int][]*entry{full.Count(): {cnt[full.Key()]}}
	leaves := map[string]*entry{}
	total := big.NewInt(0)
	states := 0
	for card := full.Count(); card >= 0; card-- {
		for _, en := range byCard[card] {
			states++
			if limit > 0 && states > limit {
				return nil, StateLimitError{Limit: limit}
			}
			ops := inst.JustifiedOps(en.s, singleton)
			if len(ops) == 0 {
				k := en.s.Key()
				if l, ok := leaves[k]; ok {
					l.paths.Add(l.paths, en.paths)
				} else {
					leaves[k] = &entry{s: en.s, paths: new(big.Int).Set(en.paths)}
				}
				total.Add(total, en.paths)
				continue
			}
			for _, op := range ops {
				t := op.Apply(en.s)
				k := t.Key()
				if nx, ok := cnt[k]; ok {
					nx.paths.Add(nx.paths, en.paths)
				} else {
					nx = &entry{s: t, paths: new(big.Int).Set(en.paths)}
					cnt[k] = nx
					byCard[t.Count()] = append(byCard[t.Count()], nx)
				}
			}
		}
	}
	out := make([]RepairProb, 0, len(leaves))
	for _, l := range leaves {
		out = append(out, RepairProb{Repair: l.s, Prob: new(big.Rat).SetFrac(l.paths, total)})
	}
	sortRepairProbs(out)
	return out, nil
}

func sortRepairProbs(rp []RepairProb) {
	// Sort by repair key for deterministic output.
	for i := 1; i < len(rp); i++ {
		for j := i; j > 0 && rp[j].Repair.Key() < rp[j-1].Repair.Key(); j-- {
			rp[j], rp[j-1] = rp[j-1], rp[j]
		}
	}
}
