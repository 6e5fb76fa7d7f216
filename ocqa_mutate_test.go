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
	"runtime"
	"strings"
	"sync"
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
	ni, pos, err := inst.ApplyInsert(f)
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
	ni, pos, err := inst.ApplyInsert(f)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ni.ApplyDelete(pos)
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
	if _, _, err := inst.ApplyInsert(ocqa.Fact{Rel: "Emp", Args: []string{"1", "Alice"}}); !errors.Is(err, ocqa.ErrDuplicateFact) {
		t.Fatalf("duplicate: %v", err)
	}
	if _, _, err := inst.ApplyInsert(ocqa.Fact{Rel: "Zz", Args: []string{"1"}}); !errors.Is(err, ocqa.ErrUnknownRelation) {
		t.Fatalf("unknown relation: %v", err)
	}
	if _, _, err := inst.ApplyInsert(ocqa.Fact{Rel: "Emp", Args: []string{"1"}}); !errors.Is(err, ocqa.ErrArityMismatch) {
		t.Fatalf("arity: %v", err)
	}
	if _, err := inst.ApplyDelete(5); !errors.Is(err, ocqa.ErrFactIndex) {
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

// TestInstanceDefersConstruction: an instance builds no sampler until a
// query needs one, then each at most once — the block decomposition on
// first M^ur use, each sequence DP table on its first M^us use — and a
// derived instance starts over, lazily.
func TestInstanceDefersConstruction(t *testing.T) {
	before := sampler.Constructions()
	inst := mustInstance(t, "Emp(1,Alice)\nEmp(1,Tom)\nEmp(2,Bob)", "Emp: A1 -> A2")
	if sampler.Constructions() != before {
		t.Fatal("NewInstance built samplers eagerly")
	}
	// One violating block of size 2 (keep Alice, keep Tom, or delete
	// the pair) and the conflict-free Bob: |CORep| = 3.
	if got := inst.CountRepairs(false); got.Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("CountRepairs = %v, want 3", got)
	}
	afterFirst := sampler.Constructions()
	if afterFirst != before+1 {
		t.Fatalf("first block use built %d samplers, want 1", afterFirst-before)
	}
	if got := inst.CountRepairs(false); got.Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("CountRepairs (repeat) = %v, want 3", got)
	}
	if sampler.Constructions() != afterFirst {
		t.Fatal("repeated block use rebuilt samplers: laziness is not at-most-once")
	}
	// A sequence-mode query builds its own DP table on first use —
	// artifacts are lazy per generator, so the block-only use above did
	// not pay for it...
	q, _ := ocqa.ParseQuery("Ans(n) :- Emp(i, n)")
	seqQuery := func(in *ocqa.Instance) {
		t.Helper()
		if _, err := in.Approximate(context.Background(), ocqa.Mode{Gen: ocqa.UniformSequences}, q, ocqa.ParseTuple("Alice"),
			ocqa.ApproxOptions{MaxSamples: 2000}); err != nil {
			t.Fatal(err)
		}
	}
	seqQuery(inst)
	afterSeq := sampler.Constructions()
	if afterSeq != afterFirst+1 {
		t.Fatalf("first sequence-mode use built %d samplers, want 1", afterSeq-afterFirst)
	}
	// ...and repeating it is free.
	seqQuery(inst)
	if sampler.Constructions() != afterSeq {
		t.Fatal("repeated sequence use rebuilt samplers: laziness is not at-most-once")
	}
	// A mutation derives an instance without samplers; its first
	// sequence-mode query builds exactly its own table.
	ni, _, err := inst.ApplyInsert(mustFact(t, "Emp(2,Carol)"))
	if err != nil {
		t.Fatal(err)
	}
	if sampler.Constructions() != afterSeq {
		t.Fatal("ApplyInsert built samplers eagerly")
	}
	seqQuery(ni)
	if got := sampler.Constructions() - afterSeq; got != 1 {
		t.Fatalf("derived instance's first sequence-mode use built %d samplers, want 1", got)
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
			ni, _, err := inst.ApplyInsert(f)
			if errors.Is(err, ocqa.ErrDuplicateFact) {
				continue
			}
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			inst = ni
		} else {
			ni, err := inst.ApplyDelete(rng.Intn(inst.DB().Len()))
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
		p := ocqa.NewInstance(w.DB, w.Sigma)
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

// TestUnseenConstantInsertBytesFlat guards the other half of a write's
// cost model: an insert that brings an unseen constant interns it into
// the lineage's shared symbol table rather than copying the table, so
// the bytes it allocates beyond an insert of known constants — averaged
// over 200 inserts, which amortises the table's occasional doubling —
// must not grow with the instance: at 20k facts at most 2× the 2k
// figure plus 4 KiB. A copy would cost the whole table, some 1.5 MB at
// 20k facts.
func TestUnseenConstantInsertBytesFlat(t *testing.T) {
	extra := func(facts int) float64 {
		w := workload.BlockDatabase(rand.New(rand.NewSource(3)), workload.UniformBlockSizes(facts/4, 4))
		p := ocqa.NewInstance(w.DB, w.Sigma)
		const inserts = 200
		perInsert := func(val func(i int) string) float64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < inserts; i++ {
				// Block k1 holds v4..v7; v8 on are constants of other blocks.
				if _, _, err := p.ApplyInsert(ocqa.Fact{Rel: "R", Args: []string{"k1", val(i)}}); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			return float64(after.TotalAlloc-before.TotalAlloc) / inserts
		}
		seen := perInsert(func(i int) string { return fmt.Sprintf("v%d", 8+i) })
		unseen := perInsert(func(i int) string { return fmt.Sprintf("u%d", 8+i) })
		return unseen - seen
	}
	small, large := extra(2000), extra(20000)
	t.Logf("bytes an unseen constant adds to an insert: %.0f at 2k facts, %.0f at 20k", small, large)
	if large > 2*small+4096 {
		t.Fatalf("unseen-constant insert overhead %.0f B at 20k facts vs %.0f B at 2k, want flat", large, small)
	}
}

// TestSymbolTableSharedAcrossBranches: every generation of a lineage
// shares one symbol table, so two branches inserting unseen constants
// concurrently intern into it while readers work on older generations —
// formatting facts, compiling and answering queries, encoding
// snapshots. Every generation must decode Equal to itself, and an
// instance decoded from a snapshot must intern into a table of its own
// without corrupting the generation it came from. Run it under -race.
func TestSymbolTableSharedAcrossBranches(t *testing.T) {
	base := mustInstance(t, "R(a,x)\nR(a,y)\nR(b,x)", "R: A1 -> A2")
	q := mustQuery(t, "Ans(v) :- R(k, v)")
	mode := ocqa.Mode{Gen: ocqa.UniformRepairs}
	const steps = 150
	gens := make(chan *ocqa.Instance, 2*steps+2)
	var writers sync.WaitGroup
	for br := 0; br < 2; br++ {
		writers.Add(1)
		go func(br int) {
			defer writers.Done()
			cur := base
			for i := 0; i < steps; i++ {
				next, _, err := cur.ApplyInsert(ocqa.Fact{Rel: "R", Args: []string{fmt.Sprintf("k%d", i%5), fmt.Sprintf("u%d_%d", br, i)}})
				if err != nil {
					t.Error(err)
					return
				}
				gens <- cur
				cur = next
			}
			gens <- cur
		}(br)
	}
	go func() {
		writers.Wait()
		close(gens)
	}()
	var readers sync.WaitGroup
	var mu sync.Mutex
	var last *ocqa.Instance
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for g := range gens {
				text := g.DB().String()
				if _, err := g.ConsistentAnswers(mode, q, 0); err != nil {
					t.Error(err)
				}
				var buf bytes.Buffer
				if err := g.Snapshot(&buf); err != nil {
					t.Error(err)
					continue
				}
				d, err := ocqa.LoadSnapshot(&buf)
				if err != nil {
					t.Error(err)
					continue
				}
				if !d.DB().Equal(g.DB()) || d.DB().String() != text {
					t.Errorf("generation of %d facts does not decode Equal to itself", g.DB().Len())
				}
				mu.Lock()
				if last == nil || g.DB().Len() > last.DB().Len() {
					last = g
				}
				mu.Unlock()
			}
		}()
	}
	readers.Wait()
	if t.Failed() {
		return
	}
	want := last.DB().String()
	var buf bytes.Buffer
	if err := last.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ocqa.LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if d, _, err = d.ApplyInsert(ocqa.Fact{Rel: "R", Args: []string{"k0", fmt.Sprintf("decoded%d", i)}}); err != nil {
			t.Fatal(err)
		}
	}
	buf.Reset()
	if err := last.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	again, err := ocqa.LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := last.DB().String(); got != want || !again.DB().Equal(last.DB()) {
		t.Fatalf("interning into a decoded instance changed its source:\n got  %s\n want %s", got, want)
	}
	if d.DB().Len() != last.DB().Len()+50 || last.DB().Contains(ocqa.Fact{Rel: "R", Args: []string{"k0", "decoded0"}}) {
		t.Fatalf("decoded lineage and its source are not independent")
	}
}

// TestInstanceConcurrentFirstUse: 8 goroutines share one never-prepared
// instance and race on everything it builds lazily — the block and
// sequence samplers, the query cache, the factorized state — and on
// deriving successors from it while those builds run. Every result must
// equal a serial run's on a fresh instance. Run it under -race -count=10.
func TestInstanceConcurrentFirstUse(t *testing.T) {
	const facts = "Emp(1,Alice)\nEmp(1,Tom)\nEmp(1,Bob)\nEmp(2,Bob)\nEmp(3,Carol)\nEmp(3,Dan)"
	q, err := ocqa.ParseQuery("Ans(n) :- Emp(i, n)")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// job g runs one generator's answers pass and one single-target
	// estimate, then the same on a successor derived by an insert.
	job := func(in *ocqa.Instance, g int) (string, error) {
		mode := ocqa.Mode{Gen: []ocqa.Generator{ocqa.UniformRepairs, ocqa.UniformSequences}[g%2], Singleton: g%4 >= 2}
		opts := ocqa.ApproxOptions{Seed: int64(g + 1), Workers: 1 + g%2}
		var out strings.Builder
		for step := 0; step < 2; step++ {
			as, err := in.ApproximateAnswers(ctx, mode, q, opts)
			if err != nil {
				return "", err
			}
			e, err := in.Approximate(ctx, mode, q, ocqa.ParseTuple("Tom"), opts)
			if err != nil {
				return "", err
			}
			n, err := in.CountSequences(mode.Singleton, 0)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&out, "%v %v/%d %v;", len(as), e.Value, e.Samples, n)
			for _, a := range as {
				fmt.Fprintf(&out, " %v=%v/%d", a.Tuple, a.Estimate.Value, a.Estimate.Samples)
			}
			if in, _, err = in.ApplyInsert(ocqa.Fact{Rel: "Emp", Args: []string{"3", fmt.Sprintf("New%d_%d", g, step)}}); err != nil {
				return "", err
			}
		}
		return out.String(), nil
	}
	const goroutines = 8
	want := make([]string, goroutines)
	for g := range want {
		if want[g], err = job(mustInstance(t, facts, "Emp: A1 -> A2"), g); err != nil {
			t.Fatal(err)
		}
	}
	shared := mustInstance(t, facts, "Emp: A1 -> A2")
	got := make([]string, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = job(shared, g)
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if got[g] != want[g] {
			t.Errorf("goroutine %d:\n got  %s\n want %s", g, got[g], want[g])
		}
	}
}
