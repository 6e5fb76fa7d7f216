package core

import (
	"math/big"
	"slices"
	"strings"

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

// stateBudget charges the distinct states an exact engine explores
// against its limit (0 = unlimited).
type stateBudget struct{ limit, states int }

func (b *stateBudget) charge() error {
	b.states++
	if b.limit > 0 && b.states > b.limit {
		return StateLimitError{Limit: b.limit}
	}
	return nil
}

// CountCRS computes |CRS(D,Σ)| (or |CRS^1| with singleton set) exactly
// by the DAG path-count recursion:
//
//	N(S) = 1                       if S |= Σ
//	N(S) = Σ_{op justified at S} N(op(S))   otherwise.
//
// With pair removals a state with no justified ops is consistent; with
// singleton removals only, the same holds, since any surviving
// violation justifies its two singleton removals. limit bounds the
// number of distinct states explored (0 = unlimited).
func (inst *Instance) CountCRS(singleton bool, limit int) (*big.Int, error) {
	return inst.CountCRSWhere(singleton, limit, func(rel.Subset) bool { return true })
}

// CountCRSWhere computes |{s ∈ CRS(D,Σ) | pred(s(D))}| exactly, where
// pred is evaluated on the final (consistent) state.
func (inst *Instance) CountCRSWhere(singleton bool, limit int, pred func(rel.Subset) bool) (*big.Int, error) {
	budget := stateBudget{limit: limit}
	memo := make(map[string]*big.Int)
	var recur func(rel.Subset) (*big.Int, error)
	recur = func(s rel.Subset) (*big.Int, error) {
		key := s.Key()
		if v, ok := memo[key]; ok {
			return v, nil
		}
		if err := budget.charge(); err != nil {
			return nil, err
		}
		ops := inst.JustifiedOps(s, singleton)
		res := big.NewInt(0)
		if len(ops) == 0 && pred(s) {
			res.SetInt64(1)
		}
		for _, op := range ops {
			n, err := recur(op.Apply(s))
			if err != nil {
				return nil, err
			}
			res.Add(res, n)
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
// operations chain ends in a state satisfying pred. It is ProbWeighted
// with every operation weighing 1.
func (inst *Instance) ProbUO(singleton bool, limit int, pred func(rel.Subset) bool) (*big.Rat, error) {
	return inst.ProbWeighted(nil, singleton, limit, pred)
}

// RepairProb pairs a repair (as a subset of D) with its probability.
type RepairProb struct {
	Repair rel.Subset
	Prob   *big.Rat
}

// SemanticsUO computes the operational semantics [[D]]_{M^uo} exactly
// (Definition 3.8): the distribution over operational repairs. It is
// SemanticsWeighted with every operation weighing 1.
func (inst *Instance) SemanticsUO(singleton bool, limit int) ([]RepairProb, error) {
	return inst.SemanticsWeighted(nil, singleton, limit)
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

// sortRepairProbs orders rp by repair key, for deterministic output.
// Each key is built once; the keys are distinct, so the order is total.
func sortRepairProbs(rp []RepairProb) {
	type keyed struct {
		key string
		rp  RepairProb
	}
	ks := make([]keyed, len(rp))
	for i, r := range rp {
		ks[i] = keyed{r.Repair.Key(), r}
	}
	slices.SortFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	for i, k := range ks {
		rp[i] = k.rp
	}
}
