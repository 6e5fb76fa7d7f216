package sampler

import (
	"fmt"
	"math/big"
	"math/rand"

	"repro/internal/alias"
	"repro/internal/core"
	"repro/internal/count"
	"repro/internal/fd"
	"repro/internal/rel"
)

// SequenceSampler draws uniform complete repairing sequences for
// primary-key instances with O(‖D‖) work per draw after a one-off
// dynamic-programming pass — the scalable alternative to Algorithm 1
// (whose step-wise law re-counts |CRS| at every step).
//
// It exploits the decomposition in the proof of Lemma C.1: a uniform
// element of CRS(D,Σ) is (i) a per-block complete sequence and (ii) a
// uniform interleaving. The sampler materialises the interleaving DP
//
//	U_j[L] = Σ_ℓ U_{j-1}[L−ℓ] · W_j[ℓ] · C(L,ℓ)
//
// once, then per draw: samples the total length L ∝ U_n[L], tracebacks
// per-block lengths ℓ_j ∝ U_{j-1}[L−ℓ]·W_j[ℓ]·C(L,ℓ), generates a
// uniform per-block sequence of the drawn length from the closed-form
// counts S^{ne,i}_m / S^{e,i}_m, and shuffles a uniform interleaving.
// The resulting distribution over CRS(D,Σ) is exactly uniform — the
// tests check it coincides with Algorithm 1's. The DP tables are
// immutable after construction, so Sample and Count are safe for
// concurrent use; only the rng is per-caller.
type SequenceSampler struct {
	inst      *core.Instance
	singleton bool
	// blocks with ≥ 2 facts; fact indices into D.
	blocks [][]int
	// w[j][ℓ] = number of complete sequences of block j with length ℓ.
	w [][]*big.Int
	// u[j][L] = weighted interleaving count over the first j blocks.
	u [][]*big.Int
	// lengthChooser draws the total length L ∝ U_n[L] — the weights are
	// fixed at construction, so the draw is a precomputed alias table
	// (or an exact cumulative search when the counts exceed uint64)
	// instead of a per-draw linear scan over big.Ints.
	lengthChooser alias.Chooser
	// splits[m][ℓ] draws the non-empty/empty-result split of a block of
	// m facts at sequence length ℓ (pair mode): the two weights
	// S^{ne}_{m,i} and S^{e}_{m,i} depend only on (m, ℓ), so one table
	// per distinct pair serves every block and every draw. nil entries
	// mark lengths the interleaving DP can never assign (W_j[ℓ] = 0).
	splits map[int][]alias.Chooser
}

// NewSequenceSampler precomputes the DP tables. It requires primary
// keys (like every CRS sampler in the paper).
func NewSequenceSampler(inst *core.Instance, singleton bool) (*SequenceSampler, error) {
	if cls := inst.Sigma.Classify(); cls != fd.PrimaryKeys {
		return nil, fmt.Errorf("sampler: sequence sampler requires primary keys, got %v", cls)
	}
	ss := &SequenceSampler{inst: inst, singleton: singleton}
	for _, b := range inst.Sigma.Blocks(inst.D) {
		if b.Size() >= 2 {
			ss.blocks = append(ss.blocks, append([]int(nil), b.Indices...))
		}
	}
	ss.w = make([][]*big.Int, len(ss.blocks))
	ss.u = make([][]*big.Int, len(ss.blocks)+1)
	ss.u[0] = []*big.Int{big.NewInt(1)}
	for j, block := range ss.blocks {
		ss.w[j] = count.BlockLengthWeights(len(block), singleton)
		prev := ss.u[j]
		nu := make([]*big.Int, len(prev)+len(ss.w[j])-1)
		for i := range nu {
			nu[i] = big.NewInt(0)
		}
		for a, ua := range prev {
			if ua.Sign() == 0 {
				continue
			}
			for l, wl := range ss.w[j] {
				if wl.Sign() == 0 {
					continue
				}
				term := new(big.Int).Mul(ua, wl)
				term.Mul(term, count.Binomial(a+l, l))
				nu[a+l].Add(nu[a+l], term)
			}
		}
		ss.u[j+1] = nu
	}
	if n := len(ss.blocks); n > 0 {
		ch, err := alias.NewExact(ss.u[n])
		if err != nil {
			return nil, fmt.Errorf("sampler: building length table: %w", err)
		}
		ss.lengthChooser = ch
	}
	if !singleton {
		ss.splits = make(map[int][]alias.Chooser)
		for j, block := range ss.blocks {
			m := len(block)
			if _, done := ss.splits[m]; done {
				continue
			}
			perLen := make([]alias.Chooser, len(ss.w[j]))
			for l, wl := range ss.w[j] {
				if wl.Sign() == 0 {
					continue
				}
				ne := count.SneBlock(m, m-l-1)
				e := count.SeBlock(m, m-l)
				ch, err := alias.NewExact([]*big.Int{ne, e})
				if err != nil {
					return nil, fmt.Errorf("sampler: building split table for block size %d length %d: %w", m, l, err)
				}
				perLen[l] = ch
			}
			ss.splits[m] = perLen
		}
	}
	Constructions.Inc()
	return ss, nil
}

// Count returns |CRS(D,Σ)| (or |CRS^1| in singleton mode).
func (ss *SequenceSampler) Count() *big.Int {
	total := big.NewInt(0)
	for _, v := range ss.u[len(ss.blocks)] {
		total.Add(total, v)
	}
	return total
}

// weightedIndex draws an index i with probability weights[i]/Σweights.
func weightedIndex(rng *rand.Rand, weights []*big.Int) int {
	total := big.NewInt(0)
	for _, w := range weights {
		total.Add(total, w)
	}
	if total.Sign() <= 0 {
		panic("sampler: empty weight vector")
	}
	r := new(big.Int).Rand(rng, total)
	for i, w := range weights {
		if r.Cmp(w) < 0 {
			return i
		}
		r.Sub(r, w)
	}
	panic("sampler: weighted draw fell through")
}

// Sample draws a uniform complete repairing sequence and its result.
func (ss *SequenceSampler) Sample(rng *rand.Rand) (core.Sequence, rel.Subset) {
	n := len(ss.blocks)
	// 1. Total length L ∝ U_n[L].
	lengths := make([]int, n)
	if n > 0 {
		bigL := ss.lengthChooser.Draw(rng)
		// 2. Traceback per-block lengths.
		for j := n; j >= 1; j-- {
			wj := ss.w[j-1]
			prev := ss.u[j-1]
			cand := make([]*big.Int, len(wj))
			for l := range wj {
				cand[l] = big.NewInt(0)
				if wj[l].Sign() == 0 || bigL-l < 0 || bigL-l >= len(prev) || prev[bigL-l].Sign() == 0 {
					continue
				}
				t := new(big.Int).Mul(prev[bigL-l], wj[l])
				t.Mul(t, count.Binomial(bigL, l))
				cand[l] = t
			}
			l := weightedIndex(rng, cand)
			lengths[j-1] = l
			bigL -= l
		}
	}
	// 3. Generate a uniform per-block sequence of the drawn length.
	perBlock := make([][]core.Op, n)
	for j, block := range ss.blocks {
		perBlock[j] = ss.sampleBlockSequence(rng, block, lengths[j])
	}
	// 4. Uniform interleaving: shuffle block slots.
	var slots []int
	for j, ops := range perBlock {
		for range ops {
			slots = append(slots, j)
		}
	}
	rng.Shuffle(len(slots), func(a, b int) { slots[a], slots[b] = slots[b], slots[a] })
	next := make([]int, n)
	seq := make(core.Sequence, 0, len(slots))
	for _, j := range slots {
		seq = append(seq, perBlock[j][next[j]])
		next[j]++
	}
	return seq, ss.inst.Result(seq)
}

// sampleBlockSequence draws a uniform complete repairing sequence of
// the given length for one block (fact indices given), using the
// S^{ne,i}_m / S^{e,i}_m split of Lemma C.1.
func (ss *SequenceSampler) sampleBlockSequence(rng *rand.Rand, block []int, length int) []core.Op {
	m := len(block)
	if ss.singleton {
		if length != m-1 {
			panic("sampler: singleton block sequence must have length m-1")
		}
		// Uniform survivor and uniform removal order.
		perm := rng.Perm(m)
		ops := make([]core.Op, 0, m-1)
		for _, idx := range perm[:m-1] {
			ops = append(ops, core.Op{I: block[idx], J: -1})
		}
		return ops
	}
	// Pair mode: length ℓ arises from a non-empty result with
	// i = m−ℓ−1 pair removals, or an empty result with i = m−ℓ; the
	// (m, ℓ)-indexed split table was precomputed at construction.
	pick := ss.splits[m][length].Draw(rng)
	perm := rng.Perm(m)
	facts := make([]int, m)
	for i, p := range perm {
		facts[i] = block[p]
	}
	if pick == 0 {
		// Non-empty: facts[0] survives; of the rest, the first 2i form
		// i pairs (consecutive pairing of a shuffled list is uniform),
		// the remainder are singletons; then shuffle the op order.
		i := m - length - 1
		rest := facts[1:]
		ops := make([]core.Op, 0, length)
		for k := 0; k < 2*i; k += 2 {
			ops = append(ops, pairOp(rest[k], rest[k+1]))
		}
		for _, f := range rest[2*i:] {
			ops = append(ops, core.Op{I: f, J: -1})
		}
		rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
		return ops
	}
	// Empty result with i = m−ℓ pairs: the final operation removes the
	// last surviving pair; the first two shuffled facts play that role,
	// the next 2(i−1) form the other pairs, the rest are singletons.
	i := m - length
	last := pairOp(facts[0], facts[1])
	rest := facts[2:]
	ops := make([]core.Op, 0, length-1)
	for k := 0; k < 2*(i-1); k += 2 {
		ops = append(ops, pairOp(rest[k], rest[k+1]))
	}
	for _, f := range rest[2*(i-1):] {
		ops = append(ops, core.Op{I: f, J: -1})
	}
	rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
	return append(ops, last)
}

func pairOp(a, b int) core.Op {
	if a > b {
		a, b = b, a
	}
	return core.Op{I: a, J: b}
}
