package ocqa_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"time"

	ocqa "repro"
	"repro/internal/fd"
	"repro/internal/rel"
	"repro/internal/sampler"
	"repro/internal/store"
	"repro/internal/workload"
)

func mustInstance(t *testing.T, facts, fds string) *ocqa.Instance {
	t.Helper()
	inst, err := ocqa.NewInstanceFromText(facts, fds)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestInsertFactCopyOnWrite(t *testing.T) {
	inst := mustInstance(t, "Emp(1,Alice)\nEmp(1,Tom)\nEmp(2,Bob)", "Emp: A1 -> A2")
	f, err := ocqa.ParseFact("Emp(2,Carol)")
	if err != nil {
		t.Fatal(err)
	}
	ni, pos, err := inst.InsertFact(f)
	if err != nil {
		t.Fatal(err)
	}
	if inst.DB().Len() != 3 || ni.DB().Len() != 4 {
		t.Fatalf("copy-on-write violated: old %d facts, new %d", inst.DB().Len(), ni.DB().Len())
	}
	if !ni.DB().Fact(pos).Equal(f) {
		t.Fatalf("fact at returned index %d is %v", pos, ni.DB().Fact(pos))
	}
	// Differential acceptance criterion: the mutated instance's
	// conflict pairs equal a from-scratch NewInstance's.
	fresh := ocqa.NewInstance(ni.DB(), ni.Sigma())
	if !reflect.DeepEqual(ni.Core().ConflictPairs(), fresh.Core().ConflictPairs()) {
		t.Fatalf("incremental conflict pairs %v != from-scratch %v",
			ni.Core().ConflictPairs(), fresh.Core().ConflictPairs())
	}
	// And the exact engine sees the new conflict.
	n1 := inst.CountRepairs(false)
	n2 := ni.CountRepairs(false)
	if n1.Cmp(n2) == 0 {
		t.Fatalf("inserting a conflicting fact left |CORep| at %v", n1)
	}
	if want := fresh.CountRepairs(false); n2.Cmp(want) != 0 {
		t.Fatalf("mutated |CORep| = %v, from-scratch %v", n2, want)
	}
}

func TestDeleteFactRestoresCounts(t *testing.T) {
	inst := mustInstance(t, "Emp(1,Alice)\nEmp(1,Tom)\nEmp(2,Bob)", "Emp: A1 -> A2")
	f, _ := ocqa.ParseFact("Emp(2,Carol)")
	ni, pos, err := inst.InsertFact(f)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ni.DeleteFact(pos)
	if err != nil {
		t.Fatal(err)
	}
	if !back.DB().Equal(inst.DB()) {
		t.Fatalf("insert+delete is not identity: %v vs %v", back.DB(), inst.DB())
	}
	if back.CountRepairs(false).Cmp(inst.CountRepairs(false)) != 0 {
		t.Fatal("repair count diverges after insert+delete round trip")
	}
}

func TestMutationErrorsSurfaceSentinels(t *testing.T) {
	inst := mustInstance(t, "Emp(1,Alice)", "Emp: A1 -> A2")
	if _, _, err := inst.InsertFact(ocqa.Fact{Rel: "Emp", Args: []string{"1", "Alice"}}); !errors.Is(err, ocqa.ErrDuplicateFact) {
		t.Fatalf("duplicate: %v", err)
	}
	if _, _, err := inst.InsertFact(ocqa.Fact{Rel: "Zz", Args: []string{"1"}}); !errors.Is(err, ocqa.ErrUnknownRelation) {
		t.Fatalf("unknown relation: %v", err)
	}
	if _, _, err := inst.InsertFact(ocqa.Fact{Rel: "Emp", Args: []string{"1"}}); !errors.Is(err, ocqa.ErrArityMismatch) {
		t.Fatalf("arity: %v", err)
	}
	if _, err := inst.DeleteFact(5); !errors.Is(err, ocqa.ErrFactIndex) {
		t.Fatalf("index: %v", err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	inst := mustInstance(t, "Emp(1,Alice)\nEmp(1,Tom)\nEmp(2,Bob)", "Emp: A1 -> A2")
	var buf bytes.Buffer
	if err := inst.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ocqa.LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.DB().Equal(inst.DB()) {
		t.Fatalf("snapshot database %v != %v", got.DB(), inst.DB())
	}
	if got.Sigma().String() != inst.Sigma().String() {
		t.Fatalf("snapshot FDs %v != %v", got.Sigma(), inst.Sigma())
	}
	if got.Class() != inst.Class() {
		t.Fatalf("snapshot class %v != %v", got.Class(), inst.Class())
	}
	q, _ := ocqa.ParseQuery("Ans(n) :- Emp(i, n)")
	mode := ocqa.Mode{Gen: ocqa.UniformRepairs}
	a1, err := inst.ConsistentAnswers(mode, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := got.ConsistentAnswers(mode, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) != len(a2) {
		t.Fatalf("answer counts diverge: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i].Prob.Cmp(a2[i].Prob) != 0 {
			t.Fatalf("answer %d prob %v vs %v", i, a1[i].Prob, a2[i].Prob)
		}
	}
}

// forgeSnapshot encodes d under schema R/2 with key A1 -> A2 without
// checking that d fits it, as a corrupt or hostile file could.
func forgeSnapshot(t *testing.T, d *ocqa.Database) []byte {
	t.Helper()
	sch := rel.MustSchema(rel.NewRelation("R", 2))
	var buf bytes.Buffer
	if err := store.EncodeInstance(&buf, d, fd.MustSet(sch, fd.New("R", []int{0}, []int{1}))); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadSnapshotRejectsMisfitFacts: a snapshot whose fact R(a) does
// not fit its own schema R/2 is an error, not a panic in the conflict
// layer.
func TestLoadSnapshotRejectsMisfitFacts(t *testing.T) {
	raw := forgeSnapshot(t, rel.NewDatabase(rel.NewFact("R", "a")))
	if _, err := ocqa.LoadSnapshot(bytes.NewReader(raw)); err == nil {
		t.Fatal("snapshot with a fact of the wrong arity loaded")
	}
}

// TestLoadSnapshotRejectsFullLookupTable: a snapshot whose stored
// lookup slots (the trailing section) all point at fact 0 leaves no
// empty slot, so a membership probe for an absent fact would never
// end. Loading must refuse it.
func TestLoadSnapshotRejectsFullLookupTable(t *testing.T) {
	d := rel.NewDatabase(rel.NewFact("R", "a", "1"), rel.NewFact("R", "b", "2"))
	raw := forgeSnapshot(t, d)
	for i := len(raw) - 4*len(d.LookupSlots()); i < len(raw); i += 4 {
		binary.LittleEndian.PutUint32(raw[i:], 1)
	}
	done := make(chan error, 1)
	go func() {
		inst, err := ocqa.LoadSnapshot(bytes.NewReader(raw))
		if err == nil {
			inst.DB().Contains(rel.NewFact("R", "a", "2"))
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("snapshot with a lookup table without an empty slot loaded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("LoadSnapshot or Contains did not return within 10s")
	}
}

func TestPrepareLazyDefersConstruction(t *testing.T) {
	inst := mustInstance(t, "Emp(1,Alice)\nEmp(1,Tom)\nEmp(2,Bob)", "Emp: A1 -> A2")
	before := sampler.Constructions()
	p := inst.PrepareLazy()
	if sampler.Constructions() != before {
		t.Fatal("PrepareLazy built samplers eagerly")
	}
	// One violating block of size 2 (keep Alice, keep Tom, or delete
	// the pair) and the conflict-free Bob: |CORep| = 3.
	if got := p.CountRepairs(false); got.Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("CountRepairs = %v, want 3", got)
	}
	afterFirst := sampler.Constructions()
	if afterFirst == before {
		t.Fatal("first use did not build samplers")
	}
	if got := p.CountRepairs(false); got.Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("CountRepairs (repeat) = %v, want 3", got)
	}
	if sampler.Constructions() != afterFirst {
		t.Fatal("repeated block use rebuilt samplers: laziness is not at-most-once")
	}
	// A sequence-mode query builds its own DP table on first use —
	// artifacts are lazy per generator, so the block-only use above did
	// not pay for it...
	q, _ := ocqa.ParseQuery("Ans(n) :- Emp(i, n)")
	if _, err := p.Approximate(context.Background(), ocqa.Mode{Gen: ocqa.UniformSequences}, q, ocqa.ParseTuple("Alice"),
		ocqa.ApproxOptions{MaxSamples: 2000}); err != nil {
		t.Fatal(err)
	}
	afterSeq := sampler.Constructions()
	if afterSeq == afterFirst {
		t.Fatal("first sequence-mode use did not build its sampler")
	}
	// ...and repeating it is free.
	if _, err := p.Approximate(context.Background(), ocqa.Mode{Gen: ocqa.UniformSequences}, q, ocqa.ParseTuple("Alice"),
		ocqa.ApproxOptions{MaxSamples: 2000}); err != nil {
		t.Fatal(err)
	}
	if sampler.Constructions() != afterSeq {
		t.Fatal("repeated sequence use rebuilt samplers: laziness is not at-most-once")
	}
}

// TestIsConsistentAlongLineage drives a random insert/delete lineage
// over general FDs on two relations — one FD led by attribute 0, one
// that omits it — and checks the O(1) IsConsistent against the
// reference check Σ.Satisfies(D) at every step. The lineage must pass
// from consistent to inconsistent and back.
func TestIsConsistentAlongLineage(t *testing.T) {
	inst := mustInstance(t, "R(c0,c0,c0)\nS(c0,c0)", "R: A1 -> A2\nR: A3 -> A1\nS: A2 -> A1")
	rng := rand.New(rand.NewSource(17))
	c := func() string { return fmt.Sprintf("c%d", rng.Intn(3)) }
	var states []bool
	for step := 0; step < 400; step++ {
		if inst.DB().Len() == 0 || rng.Intn(2) == 0 {
			text := fmt.Sprintf("S(%s,%s)", c(), c())
			if rng.Intn(2) == 0 {
				text = fmt.Sprintf("R(%s,%s,%s)", c(), c(), c())
			}
			f, err := ocqa.ParseFact(text)
			if err != nil {
				t.Fatal(err)
			}
			ni, _, err := inst.InsertFact(f)
			if errors.Is(err, ocqa.ErrDuplicateFact) {
				continue
			}
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			inst = ni
		} else {
			ni, err := inst.DeleteFact(rng.Intn(inst.DB().Len()))
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			inst = ni
		}
		got, want := inst.IsConsistent(), inst.Sigma().Satisfies(inst.DB())
		if got != want {
			t.Fatalf("step %d: IsConsistent() = %t, Σ.Satisfies(D) = %t on %v", step, got, want, inst.DB())
		}
		if len(states) == 0 || states[len(states)-1] != got {
			states = append(states, got)
		}
	}
	t.Logf("consistency changes along the lineage: %d", len(states)-1)
	if len(states) < 3 || !states[0] {
		t.Fatalf("lineage consistency changes %v never went consistent → inconsistent → consistent", states)
	}
}

// TestApplyWriteAllocsFlat guards the cost model of a single-fact
// write: an ApplyInsert+ApplyDelete pair on a primary-key Prepared
// allocates a size-independent number of objects (its O(‖D‖) work is
// flat copying), so 10× the facts may cost at most 2× the allocations.
func TestApplyWriteAllocsFlat(t *testing.T) {
	allocs := func(facts int) float64 {
		w := workload.BlockDatabase(rand.New(rand.NewSource(3)), workload.UniformBlockSizes(facts/4, 4))
		p := ocqa.NewInstance(w.DB, w.Sigma).PrepareLazy()
		// Both constants exist, so the insert extends block k1 without
		// cloning the symbol table.
		f := ocqa.Fact{Rel: "R", Args: []string{"k1", "v0"}}
		return testing.AllocsPerRun(5, func() {
			np, pos, err := p.ApplyInsert(f)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := np.ApplyDelete(pos); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(2000), allocs(20000)
	t.Logf("allocations per insert+delete: %.0f at 2k facts, %.0f at 20k", small, large)
	if large > 2*small {
		t.Fatalf("ApplyInsert+ApplyDelete allocations: %.0f at 20k facts vs %.0f at 2k, want within 2×", large, small)
	}
}
