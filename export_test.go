package ocqa

import (
	"fmt"
	"sort"
)

// CachedQueries reports how many query fingerprints the instance's
// query cache holds.
func CachedQueries(in *Instance) int {
	in.queryMu.Lock()
	defer in.queryMu.Unlock()
	return len(in.queries)
}

// DeltaDecomposition renders one target's decomposition for comparison:
// whether it was carried into this generation rather than built on
// first use, and its clusters in order.
type DeltaDecomposition struct {
	Tuple    string
	Carried  bool
	Certain  bool
	Sigs     []string
	Radix    [][]int
	Reqs     [][]string
	Outcomes []int64
}

// DeltaDecompositions returns, for every live target of q's fingerprint
// in tuple-key order, the decomposition the instance holds — carried
// across the mutation that made the instance, or built now — and one
// built from scratch. ok is false when the fingerprint overflowed.
func DeltaDecompositions(in *Instance, q *Query, singleton bool) (held, fresh []DeltaDecomposition, ok bool) {
	dq := in.deltaQueryFor(q)
	if dq.overflow {
		return nil, nil, false
	}
	dq.mu.Lock()
	defer dq.mu.Unlock()
	v := 0
	if singleton {
		v = 1
	}
	view := func(key string, carried bool, dec *deltaDecomp) DeltaDecomposition {
		out := DeltaDecomposition{Tuple: key, Carried: carried, Certain: dec.certain}
		if dec.certain {
			return out
		}
		for _, c := range dec.clusters {
			out.Sigs = append(out.Sigs, c.sig)
			out.Radix = append(out.Radix, c.radix)
			out.Outcomes = append(out.Outcomes, c.outcomes)
			var reqs []string
			for _, r := range c.reqs {
				reqs = append(reqs, fmt.Sprint(r))
			}
			sort.Strings(reqs)
			out.Reqs = append(out.Reqs, reqs)
		}
		return out
	}
	for i := range dq.targets {
		t := &dq.targets[i]
		carried := t.dec[v] != nil
		held = append(held, view(t.key, carried, in.decomposition(dq, t, singleton)))
		fresh = append(fresh, view(t.key, false, in.newDecomposer().decompose(dq, t, singleton)))
	}
	return held, fresh, true
}
