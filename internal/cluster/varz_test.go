package cluster

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
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

// promSample is one sample line of a /metrics scrape.
type promSample struct {
	name, labels string
	value        float64
}

var promName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// scrapeMetrics GETs url/metrics, lints it as the server's
// TestMetricsPrometheusExposition does — the 0.0.4 content type, valid
// metric names, and a # HELP and a # TYPE line for every sample's
// family ahead of the sample — and returns each family's type and the
// samples.
func scrapeMetrics(t *testing.T, url string) (map[string]string, []promSample) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s/metrics: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("%s/metrics: content type %q, want Prometheus text format 0.0.4", url, ct)
	}
	helped, types := map[string]bool{}, map[string]string{}
	var samples []promSample
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if f, ok := strings.CutPrefix(line, "# HELP "); ok {
			helped[strings.Fields(f)[0]] = true
			continue
		}
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fs := strings.Fields(f)
			if len(fs) != 2 {
				t.Fatalf("%s/metrics: malformed TYPE line %q", url, line)
			}
			types[fs[0]] = fs[1]
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("%s/metrics: no value in %q", url, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("%s/metrics: unparseable value in %q", url, line)
		}
		name, labels, _ := strings.Cut(line[:sp], "{")
		if !promName.MatchString(name) {
			t.Errorf("%s/metrics: invalid metric name in %q", url, line)
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suf); ok && types[base] == "histogram" {
				family = base
			}
		}
		if !helped[family] || types[family] == "" {
			t.Errorf("%s/metrics: sample %s has no # HELP/# TYPE for family %s before it", url, name, family)
		}
		samples = append(samples, promSample{name: name, labels: labels, value: v})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return types, samples
}

// TestVarzMatchesMetrics: /varz is rendered from the registries that
// /metrics renders. On a memory-only backend, a durable backend and the
// coordinator, scraped back to back with no traffic between, every
// unlabelled counter and gauge on /metrics is on /varz under its
// metrics.VarzKey with the same value (uptime_seconds, a clock, can
// only have grown), and every other /varz key is one the server adds
// itself. Each /metrics, the coordinator's included, passes the
// exposition lint.
func TestVarzMatchesMetrics(t *testing.T) {
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

	// Traffic first, so that the compared series are not all zero.
	for _, url := range []string{memory.URL, durable.URL, h.Coord.URL} {
		reg := clusterRegister(t, url)
		q := server.QueryRequest{Generator: "uo", Mode: "approx", Query: empQ, Tuple: "Alice", Seed: 5}
		if status := cdo(t, http.MethodPost, url+"/v1/instances/"+reg.ID+"/query", q, nil); status != http.StatusOK {
			t.Fatalf("%s query: status %d", url, status)
		}
	}

	serverKeys := []string{"build", "coverage_checks", "coverage_within", "endpoint_latency", "persistent"}
	storeKeys := []string{"compactions", "replayed_ops", "snapshots", "wal_appends", "wal_records"}
	for _, c := range []struct {
		name, url string
		added     []string // /varz keys no series backs
	}{
		{"memory-only backend", memory.URL, append(append([]string(nil), serverKeys...), storeKeys...)},
		{"durable backend", durable.URL, serverKeys},
		{"coordinator", h.Coord.URL, nil},
	} {
		var varz map[string]any
		if status := cdo(t, http.MethodGet, c.url+"/varz", nil, &varz); status != http.StatusOK {
			t.Fatalf("%s /varz: status %d", c.name, status)
		}
		types, samples := scrapeMetrics(t, c.url)
		matched, nonzero := 0, 0
		for _, s := range samples {
			if s.labels != "" || (types[s.name] != "counter" && types[s.name] != "gauge") {
				continue
			}
			key := metrics.VarzKey(s.name)
			got, ok := varz[key].(float64)
			switch {
			case !ok:
				t.Errorf("%s: series %s has no numeric /varz key %q", c.name, s.name, key)
			case key == "uptime_seconds":
				if got > s.value {
					t.Errorf("%s: /varz uptime %v ahead of the later /metrics scrape's %v", c.name, got, s.value)
				}
			case got != s.value:
				t.Errorf("%s: /varz %s = %v, /metrics %s = %v", c.name, key, got, s.name, s.value)
			}
			matched++
			if s.value != 0 {
				nonzero++
			}
		}
		if want := len(varz) - len(c.added); matched != want {
			t.Errorf("%s: %d /varz keys come from a series, want %d (all but %v)", c.name, matched, want, c.added)
		}
		for _, k := range c.added {
			if _, ok := varz[k]; !ok {
				t.Errorf("%s: /varz lacks %q", c.name, k)
			}
		}
		if nonzero < 3 {
			t.Errorf("%s: only %d compared series are nonzero; the traffic did not reach them", c.name, nonzero)
		}
	}
}
