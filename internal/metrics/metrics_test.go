package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.NewCounter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.NewGauge("test_gauge", "a gauge")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", g.Value())
	}
}

func TestVecChildrenAndRemove(t *testing.T) {
	r := New()
	v := r.NewCounterVec("req_total", "requests", "endpoint", "code")
	v.With("query", "200").Add(3)
	v.With("query", "200").Add(2) // same child
	v.With("batch", "504").Inc()
	var got []int64
	v.Each(func(_ []string, val int64) { got = append(got, val) })
	if len(got) != 2 || got[0] != 5 || got[1] != 1 {
		t.Fatalf("children = %v, want [5 1]", got)
	}
	v.Remove("query", "200")
	got = nil
	v.Each(func(_ []string, val int64) { got = append(got, val) })
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("after remove: %v", got)
	}
}

// exactQuantile is the nearest-rank order statistic the histogram's
// quantiles estimate: the observation of rank ⌈q·n⌉.
func exactQuantile(sorted []float64, q float64) float64 {
	return sorted[min(max(int(math.Ceil(q*float64(len(sorted)))), 1), len(sorted))-1]
}

func TestHistogramQuantiles(t *testing.T) {
	r := New()
	h := r.NewHistogram("lat_seconds", "latency")
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram should have NaN quantiles")
	}
	// 100 observations uniform over (0, 1].
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i)/100)
		h.Observe(float64(i) / 100)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-50.5) > 1e-9 {
		t.Fatalf("sum = %v, want 50.5", h.Sum())
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
		want := exactQuantile(xs, q)
		if got := h.Quantile(q); math.Abs(got-want) > 0.02*want {
			t.Errorf("p%g = %v, want within 2%% of %v", 100*q, got, want)
		}
	}
}

// TestHistogramAccuracy pins the quantile error at ≤2% of the exact
// order statistic from 10 µs to 60 s, for log-uniform and bimodal
// latencies, in one histogram and in two read together.
func TestHistogramAccuracy(t *testing.T) {
	const lo, hi = 10e-6, 60.0
	samplers := map[string]func(*rand.Rand) float64{
		"log-uniform": func(rng *rand.Rand) float64 {
			return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
		},
		// A fast mode near 200 µs (cache hits) and a slow one near 2 s.
		"bimodal": func(rng *rand.Rand) float64 {
			mode := 200e-6
			if rng.Intn(4) == 0 {
				mode = 2
			}
			return min(max(mode*math.Exp(rng.NormFloat64()), lo), hi)
		},
	}
	for name, draw := range samplers {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var a, b Histogram
			var all, inA []float64
			for i := 0; i < 20000; i++ {
				x := draw(rng)
				all = append(all, x)
				if i%3 == 0 {
					b.Observe(x)
				} else {
					a.Observe(x)
					inA = append(inA, x)
				}
			}
			sort.Float64s(all)
			sort.Float64s(inA)
			for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
				for _, c := range []struct {
					label string
					got   float64
					exact []float64
				}{
					{"one histogram", a.Quantile(q), inA},
					{"two together", Quantile(q, &a, &b), all},
				} {
					want := exactQuantile(c.exact, q)
					if err := math.Abs(c.got-want) / want; err > 0.02 {
						t.Errorf("%s seed %d, %s: p%g = %v, exact %v, error %.2f%% > 2%%",
							name, seed, c.label, 100*q, c.got, want, 100*err)
					}
				}
			}
		}
	}
}

// TestHistogramBucketBounds checks the bucket edges the exposition
// relies on: a value equal to a bound counts at that bound's `le`, so
// every exposed cumulative count is exact; values at or below the
// lowest bound report 0, and values past the top land in +Inf only.
func TestHistogramBucketBounds(t *testing.T) {
	var h Histogram
	xs := []float64{0, lowest, 1e-3, 0.5, 0.5625, 0.56250001, 1, 1.0000001, 2, 3.75, 60, 2 * highest}
	for _, x := range xs {
		h.Observe(x)
	}
	emitted := 0
	total := h.cumulative(func(le float64, cum int64) {
		emitted++
		want := int64(0)
		for _, x := range xs {
			if x <= le {
				want++
			}
		}
		if cum != want {
			t.Errorf("le=%v: cumulative %d, want %d", le, cum, want)
		}
	})
	if total != int64(len(xs)) {
		t.Errorf("+Inf count %d, want %d", total, len(xs))
	}
	if emitted < 2 {
		t.Fatalf("only %d bounds emitted", emitted)
	}
	var z Histogram
	z.Observe(0)
	z.Observe(lowest / 2)
	if got := z.Quantile(0.99); got != 0 {
		t.Errorf("zero-bucket quantile = %v, want 0", got)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := New()
	h := r.NewHistogram("x", "")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i % 100))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if math.Abs(h.Sum()-8*1000*49.5) > 1e-6 {
		t.Fatalf("sum = %v", h.Sum())
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New()
	c := r.NewCounter("ocqa_queries_total", "Total queries.")
	c.Add(7)
	v := r.NewCounterVec("ocqa_http_requests_total", "Requests.", "endpoint")
	v.With("query").Add(2)
	h := r.NewHistogram("ocqa_latency_seconds", "Latency.")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	r.NewGaugeFunc("ocqa_up", "Always one.", func() float64 { return 1 })
	collected := false
	r.OnCollect(func() { collected = true })

	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !collected {
		t.Fatal("collect hook did not run")
	}
	for _, want := range []string{
		"# TYPE ocqa_queries_total counter\n",
		"ocqa_queries_total 7\n",
		`ocqa_http_requests_total{endpoint="query"} 2` + "\n",
		"# TYPE ocqa_latency_seconds histogram\n",
		// The zero bucket's bound, then 8 bounds for each of the three
		// octaves observed: (1/32, 1/16], (1/4, 1/2] and (1, 2]. A value
		// on a bound counts at that bound.
		`ocqa_latency_seconds_bucket{le="9.5367431640625e-07"} 0` + "\n",
		`ocqa_latency_seconds_bucket{le="0.046875"} 0` + "\n",
		`ocqa_latency_seconds_bucket{le="0.05078125"} 1` + "\n",
		`ocqa_latency_seconds_bucket{le="0.5"} 2` + "\n",
		`ocqa_latency_seconds_bucket{le="1.125"} 2` + "\n",
		`ocqa_latency_seconds_bucket{le="2"} 3` + "\n",
		`ocqa_latency_seconds_bucket{le="+Inf"} 3` + "\n",
		"ocqa_latency_seconds_sum 2.55\n",
		"ocqa_latency_seconds_count 3\n",
		"ocqa_up 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	les := func(out string) map[string]bool {
		set := map[string]bool{}
		for _, line := range strings.Split(out, "\n") {
			if le, ok := strings.CutPrefix(line, "ocqa_latency_seconds_bucket{le=\""); ok {
				set[le[:strings.IndexByte(le, '"')]] = true
			}
		}
		return set
	}
	before := les(out)
	if len(before) != 1+3*8+1 {
		t.Errorf("%d le values, want 26", len(before))
	}
	// A new octave adds its bounds; none of the earlier ones go.
	h.Observe(1e-3)
	b.Reset()
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	after := les(b.String())
	for le := range before {
		if !after[le] {
			t.Errorf("le=%s gone after another observation", le)
		}
	}
	if len(after) != len(before)+8 {
		t.Errorf("%d le values after a new octave, want %d", len(after), len(before)+8)
	}
}

// TestVarz: Varz keys every unlabelled counter and gauge of the
// registries it is given by VarzKey — counters, func ones included, as
// int64 (JSON integers), gauges as float64 — and leaves labelled
// families and histograms out.
func TestVarz(t *testing.T) {
	a, b := New(), New()
	a.NewCounter("ocqa_queries_served_total", "").Add(3)
	a.NewCounter("ocqa_result_cache_hits_total", "").Add(2)
	a.NewCounterFunc("ocqa_store_compactions_total", "", func() float64 { return 4 })
	a.NewCounterVec("ocqa_http_requests_total", "", "code").With("200").Inc()
	a.NewHistogram("ocqa_engine_run_draws", "").Observe(1)
	b.NewGauge("ocqa_engine_last_auto_workers", "").Set(2)
	b.NewGaugeFunc("ocqa_result_cache_entries", "", func() float64 { return 1.5 })
	got := Varz(a, b)
	want := map[string]any{
		"queries_served":           int64(3),
		"cache_hits":               int64(2),
		"compactions":              int64(4),
		"engine_last_auto_workers": 2.0,
		"cache_entries":            1.5,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Varz = %v, want %v", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := New()
	v := r.NewGaugeVec("g", "", "name")
	v.With("a\"b\\c\nd").Set(1)
	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	if want := `g{name="a\"b\\c\nd"} 1`; !strings.Contains(b.String(), want) {
		t.Fatalf("escaped label missing %q in %q", want, b.String())
	}
}

func TestDuplicateAndInvalidNamesPanic(t *testing.T) {
	r := New()
	r.NewCounter("dup", "")
	for name, f := range map[string]func(){
		"duplicate":    func() { r.NewCounter("dup", "") },
		"invalid name": func() { r.NewCounter("9bad", "") },
		"bad label":    func() { r.NewCounterVec("ok", "", "le-gal") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			f()
		}()
	}
}
