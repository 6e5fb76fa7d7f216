package sampler

import (
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/core"
)

// UOLocal draws leaves of the uniform-operations chain M^uo (or
// M^{uo,1}) one fact at a time: after Draw starts a draw, Has(f)
// decides whether fact f survives in that draw's repair by exploring
// only the operations that can reach f. A target whose witness images
// need a handful of facts costs a handful of facts per draw, where a
// UOWalker walk removes facts across the whole instance.
//
// Equivalence with the chain — its random-order form. Call an
// operation potential if it is justified at D: −{f} for every fact f
// in a conflict pair, and, under M^uo only, −{f,g} for every conflict
// pair {f,g}. Every operation justified later is potential, and
// applying one only removes facts, which kills conflict pairs and never
// creates one: an operation that stops being justified never becomes
// justified again. Run the chain in continuous time, every justified
// operation firing after an independent Exp(1) clock. The jump chain
// picks a uniform justified operation at each step, M^uo's transition
// law, and by memorylessness the clocks of the operations still
// justified after a jump are again i.i.d. Exp(1). So each potential
// operation may get one clock up front, firing at its time if it is
// still justified and skipped otherwise. Only the clocks' order
// matters: the leaf law (Lemma 7.2 / D.7) is that of giving every
// potential operation an i.i.d. uniform rank, scanning the operations
// in rank order and applying each one still justified at its turn. The
// scan ends at a leaf: a conflict pair left at the end would have kept
// its endpoints' singleton removals justified at their ranks.
//
// Local decision. Fact f is present just before rank t iff none of f's
// operations of rank < t was applied. Scanned in rank order, each is
// applied iff it is justified at its rank r, given that no earlier one
// was, so that f is present: −{f} iff some neighbour g of f is present
// before r, and −{f,g} iff g is present before r. Each is the same
// question at a strictly smaller rank, so the recursion ends, and it
// visits only the facts reachable from f along operations of
// decreasing rank — the local computation of a random-order greedy
// process (Nguyen and Onak). Ranks are drawn lazily, on first use,
// from the draw's rng: which operation gets which value follows the
// order facts are asked about, but each is a fresh uniform value, so
// the ranks stay i.i.d. They keep 64 − ⌈log₂(#operations + 1)⌉ random
// high bits and break equal ones by operation id, so a draw is a
// function of the rng stream and the facts asked, and ties bias it by
// less than (operations touched)² / 2^(random bits).
//
// Per-draw state is generation-stamped and memoised: Draw bumps one
// counter instead of resetting O(‖D‖) arrays, and a fact's fate, once
// decided, is answered in O(1) for the rest of the draw. A UOLocal is
// not safe for concurrent use; build one per worker over the
// instance's shared Adjacency.
type UOLocal struct {
	adj       *core.Adjacency
	singleton bool
	// idMask covers the low bits of a rank, which hold the operation's
	// id plus one: −{f} is f, pair p is |D| + p. Ranks are therefore
	// distinct, positive and below never, and equal random high bits
	// break by id.
	idMask uint64
	rng    *rand.Rand
	gen    uint32

	// Per fact, valid while stamp[f] == gen: self[f] is the rank of
	// −{f}; f's operations ranked below next[f] are known not applied,
	// and next[f] is the rank of the one to check next (never when none
	// is left), −{f, nextNbr[f]} or, when nextNbr[f] < 0, −{f}; death[f]
	// is the rank of the operation that removed f, never until found.
	stamp   []uint32
	self    []uint64
	next    []uint64
	nextNbr []int32
	death   []uint64

	// Pair-operation ranks, valid while pairStamp[p] == gen: each pair
	// operation is drawn once and read from both endpoints.
	pairStamp []uint32
	pairRank  []uint64
}

// never is the rank past every operation: a surviving fact's death,
// and the threshold at which Has asks about a fact.
const never = math.MaxUint64

// NewUOLocal returns a sampler of M^uo leaves over the conflict
// adjacency, or of M^{uo,1} leaves with singleton set.
func NewUOLocal(adj *core.Adjacency, singleton bool) *UOLocal {
	n := len(adj.Start) - 1
	pairs := len(adj.Pair) / 2
	s := &UOLocal{
		adj:       adj,
		singleton: singleton,
		idMask:    1<<bits.Len(uint(n+pairs+1)) - 1,
		stamp:     make([]uint32, n),
		self:      make([]uint64, n),
		next:      make([]uint64, n),
		nextNbr:   make([]int32, n),
		death:     make([]uint64, n),
	}
	if !singleton {
		s.pairStamp = make([]uint32, pairs)
		s.pairRank = make([]uint64, pairs)
	}
	return s
}

// Draw starts a new draw: Has then answers for one fresh leaf of the
// chain, drawing the ranks it needs from rng, which must not be used
// elsewhere until the draw's last Has call.
func (s *UOLocal) Draw(rng *rand.Rand) {
	s.rng = rng
	s.gen++
	if s.gen == 0 {
		// The stamps wrapped around: clear them once every 2^32 draws.
		clear(s.stamp)
		clear(s.pairStamp)
		s.gen = 1
	}
}

// Has reports whether fact f survives in the current draw's repair.
func (s *UOLocal) Has(f int) bool { return s.present(f, never) }

// rank draws operation id's rank.
func (s *UOLocal) rank(id int) uint64 { return s.rng.Uint64()&^s.idMask | uint64(id+1) }

// present reports whether fact f is present just before rank t. It
// checks f's operations below t in rank order, from where earlier
// questions about f left off; nested questions ask about strictly
// smaller ranks, so they never move past the operation being checked.
func (s *UOLocal) present(f int, t uint64) bool {
	lo, hi := s.adj.Start[f], s.adj.Start[f+1]
	if lo == hi {
		return true // no conflict: f survives every repair
	}
	if s.stamp[f] != s.gen {
		s.visit(f, lo, hi)
	}
	for s.death[f] == never {
		r := s.next[f]
		if r >= t {
			return true
		}
		if s.applied(r, s.nextNbr[f], lo, hi) {
			s.death[f] = r
			break
		}
		s.advance(f, r, lo, hi)
	}
	return s.death[f] >= t
}

// applied reports whether the operation of rank r of a fact with
// adjacency range [lo, hi) is justified at its turn, given that the
// fact is present then: −{f, nbr} needs nbr present, −{f} any
// neighbour.
func (s *UOLocal) applied(r uint64, nbr int32, lo, hi int) bool {
	if nbr >= 0 {
		return s.present(int(nbr), r)
	}
	for k := lo; k < hi; k++ {
		if s.present(s.adj.Nbr[k], r) {
			return true
		}
	}
	return false
}

// visit starts fact f's scan in this draw, drawing the ranks of its
// operations not drawn yet.
func (s *UOLocal) visit(f, lo, hi int) {
	s.stamp[f] = s.gen
	s.death[f] = never
	s.self[f] = s.rank(f)
	if !s.singleton {
		n := len(s.stamp)
		for _, p := range s.adj.Pair[lo:hi] {
			if s.pairStamp[p] != s.gen {
				s.pairStamp[p] = s.gen
				s.pairRank[p] = s.rank(n + p)
			}
		}
	}
	s.advance(f, 0, lo, hi)
}

// advance moves f's scan to its operation of least rank above r. A
// linear pass beats sorting: most scans end after an operation or two.
func (s *UOLocal) advance(f int, r uint64, lo, hi int) {
	best, nbr := uint64(never), int32(-1)
	if x := s.self[f]; x > r {
		best = x
	}
	if !s.singleton {
		for k := lo; k < hi; k++ {
			if x := s.pairRank[s.adj.Pair[k]]; x > r && x < best {
				best, nbr = x, int32(s.adj.Nbr[k])
			}
		}
	}
	s.next[f], s.nextNbr[f] = best, nbr
}
