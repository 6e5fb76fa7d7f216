package core

// Adjacency is the conflict graph CG(D,Σ) in compressed sparse row
// form: the conflict pairs incident to fact f are
// Pair[Start[f]:Start[f+1]], as ids into ConflictPairs in ascending
// order, and Nbr[k] is the other endpoint of pair Pair[k]. The pairs
// are sorted with I < J, so ascending pair id is ascending neighbour
// too. An Adjacency is immutable: the uniform-operations samplers of
// every worker of every request share one, read-only.
type Adjacency struct {
	Start []int
	Pair  []int
	Nbr   []int
}

// Adjacency returns the instance's conflict adjacency. It is built on
// the first call — O(|D| + |conflict pairs|), after ConflictPairs — and
// then shared, so an instance that never samples the uniform-operations
// chain never pays for it. Mutations derive a new instance, which
// builds its own pairs and adjacency on first use.
func (inst *Instance) Adjacency() *Adjacency {
	inst.adjOnce.Do(func() {
		pairs := inst.ConflictPairs()
		n := inst.D.Len()
		a := &Adjacency{
			Start: make([]int, n+1),
			Pair:  make([]int, 2*len(pairs)),
			Nbr:   make([]int, 2*len(pairs)),
		}
		for _, p := range pairs {
			a.Start[p[0]+1]++
			a.Start[p[1]+1]++
		}
		for f := 0; f < n; f++ {
			a.Start[f+1] += a.Start[f]
		}
		next := append([]int(nil), a.Start[:n]...)
		for pid, p := range pairs {
			for k, f := range p {
				a.Pair[next[f]] = pid
				a.Nbr[next[f]] = p[1-k]
				next[f]++
			}
		}
		inst.adj = a
	})
	return inst.adj
}
