package core

import (
	"fmt"
	"testing"

	"repro/internal/fd"
	"repro/internal/rel"
)

// benchDB builds a database of `blocks` key-blocks of `blockSize`
// mutually conflicting facts each, under a single primary key — the
// block-heavy shape where the full ConflictPairs recompute is
// quadratic per block.
func benchDB(blocks, blockSize int) (*rel.Database, *fd.Set) {
	var facts []rel.Fact
	for b := 0; b < blocks; b++ {
		for i := 0; i < blockSize; i++ {
			facts = append(facts, rel.NewFact("R", fmt.Sprintf("k%d", b), fmt.Sprintf("v%d", i)))
		}
	}
	sch := rel.MustSchema(rel.NewRelation("R", 2))
	return rel.NewDatabase(facts...), fd.MustSet(sch, fd.New("R", []int{0}, []int{1}))
}

// BenchmarkInsertFactIncremental inserts one conflicting fact via the
// incremental path (copy-on-write off a fixed base instance).
func BenchmarkInsertFactIncremental(b *testing.B) {
	d, sigma := benchDB(200, 8)
	inst := NewInstance(d, sigma)
	f := rel.NewFact("R", "k7", "fresh")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := inst.InsertFact(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertFactRebuild performs the same logical mutation by
// rebuilding the whole conflict structure from scratch — the cost the
// incremental path avoids.
func BenchmarkInsertFactRebuild(b *testing.B) {
	d, sigma := benchDB(200, 8)
	f := rel.NewFact("R", "k7", "fresh")
	d2, _, ok := d.Insert(f)
	if !ok {
		b.Fatal("insert failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NewInstance(d2, sigma)
	}
}
