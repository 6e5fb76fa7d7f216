package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/store"
)

// backendVarzKeys is the top-level /varz key set of a backend, with or
// without a durable store. It includes the keys the repository
// benchmark's traced run decodes (bench/layers.go): cache_hits,
// cache_misses, fact_mutations, result_cache_delta_refreshes,
// replication_full_syncs, compactions, engine_samples_drawn,
// delta_factor_cache_hits, delta_factor_cache_misses and
// delta_reused_draws.
var backendVarzKeys = []string{
	"answer_tuples", "answers_queries", "approx_queries",
	"batch_requests", "build", "cache_entries", "cache_hits",
	"cache_misses", "compactions", "coverage_checks", "coverage_within",
	"delta_factor_cache_hits", "delta_factor_cache_misses",
	"delta_refreshes", "delta_reused_draws", "endpoint_latency",
	"engine_auto_worker_runs", "engine_cancelled_runs",
	"engine_last_auto_workers", "engine_multi_runs",
	"engine_multi_targets", "engine_samples_drawn", "errors", "evictions",
	"exact_queries", "fact_mutations", "instances",
	"instances_registered", "persistent", "queries_served", "refusals",
	"replayed_ops", "replicas", "replication_feeds",
	"replication_full_syncs", "replication_ops_applied",
	"replication_promotions", "result_cache_delta_refreshes",
	"result_cache_evictions", "sample_draws", "sampler_constructions",
	"shed_requests", "snapshots", "timeouts", "uptime_seconds",
	"wal_appends", "wal_records",
}

// coordVarzKeys is the coordinator's, including the benchmark's
// proxied_requests and hedged_requests.
var coordVarzKeys = []string{
	"backends", "breaker_rejections", "failovers",
	"follower_sync_failures", "follower_syncs", "hedge_wins",
	"hedged_requests", "proxied_requests", "shards", "shed_passthroughs",
}

// TestVarzKeySets pins the /varz key sets of a memory-only backend, a
// durable backend and the coordinator. Every other reader decodes /varz
// into a struct, where a dropped or renamed key silently reads as 0.
func TestVarzKeySets(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	memory := httptest.NewServer(server.New(server.Options{}))
	t.Cleanup(memory.Close)
	durable := httptest.NewServer(server.New(server.Options{Store: st}))
	t.Cleanup(durable.Close)
	h := newClusterHarness(t, 1, server.Options{}, Options{})

	for _, c := range []struct {
		name, url string
		want      []string
	}{
		{"memory-only backend", memory.URL, backendVarzKeys},
		{"durable backend", durable.URL, backendVarzKeys},
		{"coordinator", h.Coord.URL, coordVarzKeys},
	} {
		// A request first: a backend omits its per-endpoint latency
		// summary until one has been served.
		cdo(t, http.MethodGet, c.url+"/healthz", nil, nil)
		var got map[string]json.RawMessage
		if status := cdo(t, http.MethodGet, c.url+"/varz", nil, &got); status != http.StatusOK {
			t.Fatalf("%s /varz: status %d", c.name, status)
		}
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		want := append([]string(nil), c.want...)
		sort.Strings(want)
		if !reflect.DeepEqual(keys, want) {
			t.Errorf("%s /varz keys:\n  got  %s\n  want %s", c.name, strings.Join(keys, " "), strings.Join(want, " "))
		}
	}
}
