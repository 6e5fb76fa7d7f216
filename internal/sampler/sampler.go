// Package sampler implements the paper's polynomial-time samplers:
//
//   - SampleRepair: uniform over CORep(D,Σ) for primary keys
//     (Lemma 5.2), and over CORep^1 (Lemma E.2);
//   - SampleSequence: uniform over CRS(D,Σ) for primary keys via
//     Algorithm 1 (Lemma 6.2), and over CRS^1 (Lemma E.9), driven by
//     the counting DP of internal/count;
//   - SampleUO: a walk of the uniform-operations chain M^uo (or
//     M^{uo,1}), whose leaf is distributed per the chain's leaf
//     distribution (Lemmas 7.2 and D.7) — valid for arbitrary FDs;
//   - UOLocal: the same leaf law, decided one fact at a time. A
//     justified operation only removes facts, and so only kills
//     conflict pairs: once unjustified, an operation stays so. With an
//     independent exponential clock per operation, memorylessness makes
//     the chain's jump law (a uniform justified operation) equal to
//     that of firing every potential operation once, in the order of
//     i.i.d. ranks, whenever it is still justified at its turn. Whether
//     a fact survives that scan depends only on operations of smaller
//     rank around it, so a draw for a single target visits a few facts,
//     not the instance.
//
// All samplers are exact (no approximation): uniformity is over the
// respective combinatorial space, using big-integer weights where the
// paper's Algorithm 1 requires the counts |CRS(·)|.
package sampler

import (
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/count"
	"repro/internal/fd"
	"repro/internal/metrics"
	"repro/internal/rel"
)

// Constructions counts successful DP-table sampler constructions
// (BlockSampler and SequenceSampler) process-wide. Caching layers use
// it to verify that prepared samplers are actually reused rather than
// rebuilt per query.
var Constructions = metrics.Process.NewCounter("ocqa_sampler_constructions_total",
	"DP-table sampler constructions process-wide.")

// BlockSampler holds the block decomposition of a primary-key instance
// and a cache of |CRS| counts per block-size profile. It provides the
// repair and sequence samplers that require primary keys.
//
// The block decomposition is immutable after construction, so
// SampleRepair, CountRepairs and Blocks are safe for concurrent use;
// the |CRS| cache is mutex-guarded, so SampleSequence and
// CountSequences are safe too — one sampler can serve many goroutines.
type BlockSampler struct {
	inst *core.Instance
	// blocks lists the fact indices of every block with ≥ 2 facts.
	blocks [][]int
	// fixed are the fact indices that survive every repair (singleton
	// blocks and keyless relations).
	fixed []int

	crsMu    sync.Mutex
	crsCache map[string]*big.Int
}

// NewBlockSampler builds the sampler; it fails unless Σ is a set of
// primary keys (the block decomposition — and with it Lemmas 5.2 and
// 6.2 — is only available there).
func NewBlockSampler(inst *core.Instance) (*BlockSampler, error) {
	if cls := inst.Sigma.Classify(); cls != fd.PrimaryKeys {
		return nil, fmt.Errorf("sampler: block sampler requires primary keys, got %v", cls)
	}
	bs := &BlockSampler{inst: inst, crsCache: make(map[string]*big.Int)}
	for _, b := range inst.Sigma.Blocks(inst.D) {
		if b.Size() >= 2 {
			idx := append([]int(nil), b.Indices...)
			bs.blocks = append(bs.blocks, idx)
		} else {
			bs.fixed = append(bs.fixed, b.Indices...)
		}
	}
	Constructions.Inc()
	return bs, nil
}

// Blocks returns the sizes of the non-singleton blocks.
func (bs *BlockSampler) Blocks() []int {
	sizes := make([]int, len(bs.blocks))
	for i, b := range bs.blocks {
		sizes[i] = len(b)
	}
	return sizes
}

// CountRepairs returns |CORep(D,Σ)| (or |CORep^1| with singleton set).
func (bs *BlockSampler) CountRepairs(singleton bool) *big.Int {
	return count.CORepPrimaryKeys(bs.Blocks(), singleton)
}

// CountSequences returns |CRS(D,Σ)| (or |CRS^1| with singleton set).
func (bs *BlockSampler) CountSequences(singleton bool) *big.Int {
	return bs.crs(bs.Blocks(), singleton)
}

// crs returns |CRS| for the block-size profile, cached by the sorted
// multiset of sizes ≥ 2 (sequence counts are symmetric in block order).
func (bs *BlockSampler) crs(sizes []int, singleton bool) *big.Int {
	var key strings.Builder
	if singleton {
		key.WriteByte('1')
	}
	trimmed := make([]int, 0, len(sizes))
	for _, m := range sizes {
		if m >= 2 {
			trimmed = append(trimmed, m)
		}
	}
	sort.Ints(trimmed)
	for _, m := range trimmed {
		key.WriteByte(':')
		key.WriteString(strconv.Itoa(m))
	}
	k := key.String()
	bs.crsMu.Lock()
	defer bs.crsMu.Unlock()
	if v, ok := bs.crsCache[k]; ok {
		return v
	}
	v := count.CRSPrimaryKeys(trimmed, singleton)
	bs.crsCache[k] = v
	return v
}

// SampleRepair draws a uniform element of CORep(D,Σ) (Lemma 5.2): per
// block of size m ≥ 2, one of the m+1 outcomes (keep fact i, or keep
// none) is chosen uniformly. With singleton set it draws from
// CORep^1(D,Σ) (Lemma E.2): one surviving fact per block, uniformly.
func (bs *BlockSampler) SampleRepair(rng *rand.Rand, singleton bool) rel.Subset {
	s := rel.NewSubset(bs.inst.D.Len())
	for _, i := range bs.fixed {
		s.Set(i)
	}
	for _, block := range bs.blocks {
		m := len(block)
		if singleton {
			s.Set(block[rng.Intn(m)])
			continue
		}
		pick := rng.Intn(m + 1)
		if pick < m {
			s.Set(block[pick])
		}
		// pick == m: the whole block is removed.
	}
	return s
}

// AddRepairCounts draws one uniform repair — the same law and rng
// consumption as SampleRepair — and increments the survival counter of
// every surviving block fact, without materialising a Subset. Facts in
// fixed (singleton) blocks survive every repair and are deliberately
// skipped: callers obtain them once via FixedIndices instead of paying
// for them on every draw. This is the marginals hot path: per draw it
// costs O(#blocks) instead of O(‖D‖).
func (bs *BlockSampler) AddRepairCounts(rng *rand.Rand, singleton bool, counts []int) {
	for _, block := range bs.blocks {
		m := len(block)
		if singleton {
			counts[block[rng.Intn(m)]]++
			continue
		}
		if pick := rng.Intn(m + 1); pick < m {
			counts[block[pick]]++
		}
		// pick == m: the whole block is removed.
	}
}

// FixedIndices returns the fact indices that survive every repair
// (singleton blocks and keyless relations) — the complement of the
// facts AddRepairCounts touches. The returned slice is a copy.
func (bs *BlockSampler) FixedIndices() []int {
	return append([]int(nil), bs.fixed...)
}

// SampleSequence draws a uniform element of CRS(D,Σ) via Algorithm 1
// (Lemma 6.2), returning the sequence and its result. At each step the
// justified operations are grouped by symmetry: within a block of
// current size m, all m singleton removals lead to profiles with equal
// |CRS|, as do all C(m,2) pair removals; a group is selected with
// probability (group size)·|CRS(after)| / |CRS(now)| and a uniform
// member within it — exactly Algorithm 1's per-operation law. With
// singleton set it samples CRS^1 uniformly (Lemma E.9).
func (bs *BlockSampler) SampleSequence(rng *rand.Rand, singleton bool) (core.Sequence, rel.Subset) {
	// present[b] = surviving fact indices of block b.
	present := make([][]int, len(bs.blocks))
	for i, b := range bs.blocks {
		present[i] = append([]int(nil), b...)
	}
	sizes := make([]int, len(bs.blocks))
	for i := range present {
		sizes[i] = len(present[i])
	}
	var seq core.Sequence
	for {
		total := bs.crs(sizes, singleton)
		// Weights per (block, kind): kind 0 = singleton removal, kind 1
		// = pair removal.
		type group struct {
			block, kind int
			weight      *big.Int // group size × |CRS(after)|
		}
		var groups []group
		sum := big.NewInt(0)
		for b, m := range sizes {
			if m < 2 {
				continue
			}
			sizes[b] = m - 1
			ws := new(big.Int).Mul(big.NewInt(int64(m)), bs.crs(sizes, singleton))
			sizes[b] = m
			groups = append(groups, group{b, 0, ws})
			sum.Add(sum, ws)
			if !singleton {
				sizes[b] = m - 2
				wp := new(big.Int).Mul(big.NewInt(int64(m*(m-1)/2)), bs.crs(sizes, singleton))
				sizes[b] = m
				groups = append(groups, group{b, 1, wp})
				sum.Add(sum, wp)
			}
		}
		if len(groups) == 0 {
			break // consistent: no block has two facts left
		}
		if sum.Cmp(total) != 0 {
			panic("sampler: block weights do not sum to |CRS|; counting bug")
		}
		// Draw r uniform in [0, total) and walk the groups.
		r := new(big.Int).Rand(rng, total)
		var g group
		for _, cand := range groups {
			if r.Cmp(cand.weight) < 0 {
				g = cand
				break
			}
			r.Sub(r, cand.weight)
		}
		p := present[g.block]
		if g.kind == 0 {
			j := rng.Intn(len(p))
			seq = append(seq, core.Op{I: p[j], J: -1})
			present[g.block] = append(p[:j:j], p[j+1:]...)
			sizes[g.block]--
		} else {
			j := rng.Intn(len(p))
			k := rng.Intn(len(p) - 1)
			if k >= j {
				k++
			}
			if j > k {
				j, k = k, j
			}
			seq = append(seq, core.Op{I: p[j], J: p[k]})
			np := make([]int, 0, len(p)-2)
			for x, v := range p {
				if x != j && x != k {
					np = append(np, v)
				}
			}
			present[g.block] = np
			sizes[g.block] -= 2
		}
	}
	s := rel.NewSubset(bs.inst.D.Len())
	for _, i := range bs.fixed {
		s.Set(i)
	}
	for _, p := range present {
		for _, i := range p {
			s.Set(i)
		}
	}
	return seq, s
}

// SampleUO runs one walk of the uniform-operations chain M^uo (or
// M^{uo,1} with singleton set): starting from D, repeatedly apply a
// uniformly chosen justified operation until consistent (Lemma 7.2 /
// Lemma D.7). It works for arbitrary FDs and returns the sequence and
// its result; the result is distributed per the chain's leaf
// distribution. For repeated sampling, construct a UOWalker once
// instead — it amortises the conflict bookkeeping.
func SampleUO(inst *core.Instance, singleton bool, rng *rand.Rand) (core.Sequence, rel.Subset) {
	return NewUOWalker(inst).Walk(rng, singleton)
}
