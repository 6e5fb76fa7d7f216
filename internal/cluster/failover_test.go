package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	ocqa "repro"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/oracle"
	"repro/internal/parse"
	"repro/internal/server"
	"repro/internal/workload"
)

// clusterModes are the six operational semantics, paired with the
// HTTP-level (generator, singleton) spelling.
var clusterModes = []struct {
	gen       string
	singleton bool
	mode      core.Mode
}{
	{"ur", false, core.Mode{Gen: core.UniformRepairs}},
	{"ur", true, core.Mode{Gen: core.UniformRepairs, Singleton: true}},
	{"us", false, core.Mode{Gen: core.UniformSequences}},
	{"us", true, core.Mode{Gen: core.UniformSequences, Singleton: true}},
	{"uo", false, core.Mode{Gen: core.UniformOperations}},
	{"uo", true, core.Mode{Gen: core.UniformOperations, Singleton: true}},
}

// traceInsertable mirrors the oracle harness's insertableFact: a fact
// not yet in the instance whose insertion keeps the conflict structure
// within brute-force reach (≤8 conflict edges).
func traceInsertable(rng *rand.Rand, inst *ocqa.Instance, rels []ocqa.Relation) (ocqa.Fact, bool) {
	db, sigma := inst.DB(), inst.Sigma()
	edges := len(sigma.ConflictPairs(db))
	for try := 0; try < 12; try++ {
		r := rels[rng.Intn(len(rels))]
		args := make([]string, r.Arity())
		for i := range args {
			args[i] = fmt.Sprintf("m%d", rng.Intn(4))
		}
		f := ocqa.Fact{Rel: r.Name, Args: args}
		if db.Contains(f) {
			continue
		}
		added := 0
		for _, g := range db.Facts() {
			if sigma.InConflict(f, g) {
				added++
			}
		}
		if edges+added > 8 {
			continue
		}
		return f, true
	}
	return ocqa.Fact{}, false
}

// answerKey flattens a served answer tuple for map comparison.
func answerKey(tuple []string) string { return strings.Join(tuple, "\x00") }

// TestFailoverDifferentialAllModes is the cluster arm of the oracle
// harness's delta-trace audit: a random mutation trace is driven
// through the coordinator while a local copy-on-write instance mirrors
// it; the owner backend is killed mid-trace and the warm follower
// promoted; the trace continues; and at the end the promoted instance's
// exact answers must be big.Rat-bitwise equal — across all six
// operational modes — to the mirror, to a cold from-scratch instance,
// and to the brute-force oracle. Any replication gap (a lost op, a
// stale full sync, a generation skew) shows up as a wrong rational.
func TestFailoverDifferentialAllModes(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runFailoverTrace(t, seed)
		})
	}
}

func runFailoverTrace(t *testing.T, seed int64) {
	h := newClusterHarness(t, 3, server.Options{}, Options{})
	rng := rand.New(rand.NewSource(seed))
	sc := workload.RandomScenario(rng, workload.ScenarioSpec{
		Class: fd.PrimaryKeys, Shape: workload.ShapeBlocks, AnswerVars: true,
	})

	var reg server.RegisterResponse
	if status := cdo(t, http.MethodPost, h.Coord.URL+"/v1/instances", server.RegisterRequest{
		Facts: parse.FormatDatabase(sc.DB),
		FDs:   parse.FormatFDs(sc.Sigma),
	}, &reg); status != http.StatusCreated {
		t.Fatalf("register: status %d", status)
	}

	mirror := ocqa.NewInstance(sc.DB, sc.Sigma)
	rels := sc.Schema.Relations()

	const ops = 12
	const killAt = 6
	for k := 0; k < ops; k++ {
		if k == killAt {
			// Kill the owner backend cold and let the coordinator promote
			// the warm follower.
			shards := h.C.Shards()
			if len(shards) != 1 {
				t.Fatalf("%d shards, want 1", len(shards))
			}
			owner, follower := shards[0].Owner, shards[0].Follower
			h.KillBackend(h.BackendIndex(owner))
			h.Failover(context.Background())
			shards = h.C.Shards()
			if shards[0].Owner != follower {
				t.Fatalf("after failover the owner is %s, want the old follower %s",
					shards[0].Owner, follower)
			}
			if shards[0].Follower == owner || shards[0].Follower == follower || shards[0].Follower == "" {
				t.Fatalf("after failover the new follower is %s — must be the remaining live backend",
					shards[0].Follower)
			}
		}

		insert := mirror.DB().Len() == 0 || (mirror.DB().Len() < 9 && rng.Intn(2) == 0)
		if insert {
			f, ok := traceInsertable(rng, mirror, rels)
			if !ok {
				insert = false
			} else {
				ni, _, err := mirror.ApplyInsert(f)
				if err != nil {
					t.Fatalf("mirror ApplyInsert(%v): %v", f, err)
				}
				mirror = ni
				var mut server.FactMutationResponse
				if status := cdo(t, http.MethodPost, h.Coord.URL+"/v1/instances/"+reg.ID+"/facts",
					server.InsertFactRequest{Fact: f.String()}, &mut); status != http.StatusOK {
					t.Fatalf("op %d: insert %v via coordinator: status %d", k, f, status)
				}
				if mut.Facts != mirror.DB().Len() {
					t.Fatalf("op %d: served instance has %d facts, mirror %d", k, mut.Facts, mirror.DB().Len())
				}
			}
		}
		if !insert && mirror.DB().Len() > 0 {
			idx := rng.Intn(mirror.DB().Len())
			ni, err := mirror.ApplyDelete(idx)
			if err != nil {
				t.Fatalf("mirror ApplyDelete(%d): %v", idx, err)
			}
			mirror = ni
			var mut server.FactMutationResponse
			if status := cdo(t, http.MethodDelete,
				fmt.Sprintf("%s/v1/instances/%s/facts/%d", h.Coord.URL, reg.ID, idx), nil, &mut); status != http.StatusOK {
				t.Fatalf("op %d: delete index %d via coordinator: status %d", k, idx, status)
			}
			if mut.Facts != mirror.DB().Len() {
				t.Fatalf("op %d: served instance has %d facts, mirror %d", k, mut.Facts, mirror.DB().Len())
			}
		}
	}

	// Ground truth: the mirror, a cold recomputation on the mirror's
	// final state, and the brute-force oracle.
	cold := ocqa.NewInstance(mirror.DB(), mirror.Sigma())
	orc, orcErr := oracle.NewWithBudget(mirror.DB(), mirror.Sigma(), 0)

	for _, m := range clusterModes {
		var resp server.QueryResponse
		if status := cdo(t, http.MethodPost, h.Coord.URL+"/v1/instances/"+reg.ID+"/query",
			server.QueryRequest{
				Generator: m.gen, Singleton: m.singleton, Mode: "exact", Query: sc.Query.String(),
			}, &resp); status != http.StatusOK {
			t.Fatalf("%s: post-failover query: status %d", m.mode.Symbol(), status)
		}
		got := map[string]string{}
		for _, a := range resp.Answers {
			got[answerKey(a.Tuple)] = a.Prob
		}

		wantMirror, err := mirror.ConsistentAnswers(m.mode, sc.Query, 0)
		if err != nil {
			t.Fatalf("%s: mirror ConsistentAnswers: %v", m.mode.Symbol(), err)
		}
		wantCold, err := cold.ConsistentAnswers(m.mode, sc.Query, 0)
		if err != nil {
			t.Fatalf("%s: cold ConsistentAnswers: %v", m.mode.Symbol(), err)
		}
		if len(wantMirror) != len(wantCold) {
			t.Fatalf("%s: mirror has %d answers, cold %d", m.mode.Symbol(), len(wantMirror), len(wantCold))
		}
		if len(got) != len(wantMirror) {
			t.Fatalf("%s: promoted instance serves %d answers, mirror has %d",
				m.mode.Symbol(), len(got), len(wantMirror))
		}
		for i, w := range wantMirror {
			if wantCold[i].Prob.Cmp(w.Prob) != 0 {
				t.Fatalf("%s: mirror %s ≠ cold %s for %v — the mirror itself drifted",
					m.mode.Symbol(), w.Prob.RatString(), wantCold[i].Prob.RatString(), w.Tuple)
			}
			key := answerKey(w.Tuple)
			if got[key] != w.Prob.RatString() {
				t.Fatalf("%s: promoted instance says %s for %v, mirror says %s — replication lost state",
					m.mode.Symbol(), got[key], w.Tuple, w.Prob.RatString())
			}
		}

		if orcErr == nil {
			wantOrc, err := orc.Answers(m.mode, sc.Query)
			if err != nil {
				continue // past the oracle's budget: mirror/cold agreement above still holds
			}
			if len(wantOrc) != len(wantMirror) {
				t.Fatalf("%s: oracle has %d answers, mirror %d", m.mode.Symbol(), len(wantOrc), len(wantMirror))
			}
			for _, w := range wantOrc {
				key := answerKey(w.Tuple)
				if got[key] != w.Prob.RatString() {
					t.Fatalf("%s: promoted instance says %s for %v, oracle says %s",
						m.mode.Symbol(), got[key], w.Tuple, w.Prob.RatString())
				}
			}
		}
	}

	if h.C.met.failovers.Load() < 1 {
		t.Fatal("failover counter never moved")
	}
}
