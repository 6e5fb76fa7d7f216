// Package metrics is the reproduction's dependency-free metrics core:
// atomic counters, gauges, and log-linear histograms with bounded
// relative error, grouped into labelled families and exportable in the
// Prometheus text exposition format. It is the only code in the
// program that turns observations into quantiles: the server's /varz
// and /metrics read its histograms, and so does the coordinator's
// hedge delay. It is also the one place a series is declared, named
// and rendered: a Registry holds the series, WritePrometheus renders
// them as /metrics and Varz as the JSON /varz object. Process holds
// the process-wide series, each registered by the package that counts
// it.
//
// Everything on the hot path is lock-free: Counter.Add and Gauge.Set
// are one atomic.Int64 op; Histogram.Observe finds its bucket from the
// float's bits, then does two atomic adds and a CAS loop for the float
// sum. Families resolve label values through a mutex-
// guarded map, so callers on hot paths should resolve children once
// (With) and retain them.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Add increments the counter; n must be ≥ 0.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a log-linear histogram with bounded relative error, in
// the spirit of HdrHistogram and DDSketch (Masson et al., VLDB 2019).
// Each power of two (2^e, 2^(e+1)] splits into subBuckets buckets of
// equal width, so a bucket is at most 1/subBuckets of its lower bound
// wide and its midpoint lies within 1/(2·subBuckets) ≈ 1.6% of any
// value in it. The octaves cover (2^minExp, 2^(minExp+numOctaves)],
// about 1 µs to 1.8e13, which holds latencies in seconds and draw
// counts alike; values at or below 2^minExp (zero included) count in a
// zero bucket that reports 0, larger ones in the +Inf bucket.
//
// An octave's counts are allocated on its first observation, so a
// histogram takes about 0.5 KB plus 256 B per octave its values reach:
// under 2 KB for five. Observe is lock-free. The zero value is an empty
// histogram.
type Histogram struct {
	octaves [numOctaves]atomic.Pointer[octave]
	zero    atomic.Int64 // observations ≤ lowest
	over    atomic.Int64 // observations > highest
	count   atomic.Int64
	sumBits atomic.Uint64
}

// octave holds the counts of one power of two's buckets.
type octave [subBuckets]atomic.Int64

const (
	subBits    = 5
	subBuckets = 1 << subBits
	minExp     = -20
	numOctaves = 64
	// lowest and highest bound the octaves: 2^minExp and
	// 2^(minExp+numOctaves).
	lowest  = 1.0 / (1 << -minExp)
	highest = 1 << (minExp + numOctaves)
	// exposeStride thins the Prometheus exposition to every fourth
	// bucket bound, 8 `le` lines per octave rather than 32, so a scrape
	// stays short and every bound is still a bucket bound, whose
	// cumulative count is exact.
	exposeStride = 4
)

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.slot(v).Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// slot returns the counter of the bucket (lower, upper] holding v,
// allocating its octave on first use. Positive floats order like their
// bit patterns, so the exponent and the top subBits mantissa bits of
// the float just below v name the bucket; taking the one below puts a
// value equal to a bound in the bucket that bound closes, as
// Prometheus' `le` semantics need.
func (h *Histogram) slot(v float64) *atomic.Int64 {
	if !(v > lowest) {
		return &h.zero
	}
	if v > highest {
		return &h.over
	}
	bits := math.Float64bits(v) - 1
	e := int(bits>>52) - 1023 - minExp
	o := h.octaves[e].Load()
	if o == nil {
		o = new(octave)
		if !h.octaves[e].CompareAndSwap(nil, o) {
			o = h.octaves[e].Load()
		}
	}
	return &o[bits>>(52-subBits)&(subBuckets-1)]
}

// bound returns the lower bound of bucket s of octave e; bound(e, s+1)
// is its upper bound.
func bound(e, s int) float64 {
	return math.Ldexp(1+float64(s)/subBuckets, e+minExp)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile of h's observations; see the
// package-level Quantile.
func (h *Histogram) Quantile(q float64) float64 { return Quantile(q, h) }

// Quantile estimates the q-quantile (0 < q ≤ 1) of the observations of
// hs taken together, e.g. a sliding window kept as two histograms. It
// returns the midpoint of the bucket holding the observation of rank
// ⌈q·n⌉ (the nearest-rank order statistic), so between 2^minExp and
// 2^(minExp+numOctaves) it is within 1.6% of that observation; the zero
// bucket reports 0 and the +Inf bucket the top bound. It scans from the
// largest bucket down, so high quantiles read few buckets, and it
// allocates nothing. Returns NaN when hs hold no observations.
func Quantile(q float64, hs ...*Histogram) float64 {
	var n, seen int64
	for _, h := range hs {
		n += h.count.Load()
		seen += h.over.Load()
	}
	if n == 0 {
		return math.NaN()
	}
	rank := min(max(int64(math.Ceil(q*float64(n))), 1), n)
	// The answer's bucket is the first, from the top, past which more
	// than n−rank observations lie.
	above := n - rank
	if seen > above {
		return highest
	}
	for e := numOctaves - 1; e >= 0; e-- {
		for s := subBuckets - 1; s >= 0; s-- {
			allocated := false
			for _, h := range hs {
				if o := h.octaves[e].Load(); o != nil {
					seen += o[s].Load()
					allocated = true
				}
			}
			if !allocated {
				break
			}
			if seen > above {
				return (bound(e, s) + bound(e, s+1)) / 2
			}
		}
	}
	return 0
}

// cumulative calls emit with the cumulative count at each exposed
// bucket bound in ascending order, and returns the total, the +Inf
// bucket's count. Octaves once allocated stay, so a series' set of
// bounds never shrinks.
func (h *Histogram) cumulative(emit func(le float64, cum int64)) int64 {
	cum := h.zero.Load()
	emit(lowest, cum)
	for e := range h.octaves {
		o := h.octaves[e].Load()
		if o == nil {
			continue
		}
		for s := range o {
			cum += o[s].Load()
			if (s+1)%exposeStride == 0 {
				emit(bound(e, s+1), cum)
			}
		}
	}
	return cum + h.over.Load()
}

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// child is one labelled instance of a family.
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
	fn          func() float64 // counterFunc / gaugeFunc families
}

// family is one named metric with a fixed label schema.
type family struct {
	name, help, typ string
	labelNames      []string
	isFunc          bool

	mu       sync.Mutex
	order    []string // insertion order of child keys, for stable output
	children map[string]*child
}

const labelSep = "\x1f"

func (f *family) child(values []string) *child {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labelNames), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := &child{labelValues: append([]string(nil), values...)}
	switch f.typ {
	case typeCounter:
		c.counter = &Counter{}
	case typeGauge:
		c.gauge = &Gauge{}
	case typeHistogram:
		c.hist = &Histogram{}
	}
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

func (f *family) remove(values []string) {
	key := strings.Join(values, labelSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.children[key]; !ok {
		return
	}
	delete(f.children, key)
	for i, k := range f.order {
		if k == key {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
}

func (f *family) reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.children = make(map[string]*child)
	f.order = nil
}

// walk visits children in insertion order under the family lock.
func (f *family) walk(visit func(*child)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, key := range f.order {
		visit(f.children[key])
	}
}

// Registry holds a set of metric families and renders them.
type Registry struct {
	mu         sync.Mutex
	families   []*family
	byName     map[string]*family
	collectors []func()
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Process is the registry of the process-wide series: the engine's,
// the samplers' and the delta layer's counters and the engine's run
// histograms, each registered at package initialisation by the package
// that updates it. Every server renders it beside its own registry.
var Process = New()

// OnCollect registers a hook that runs at the start of every render —
// the place to refresh scrape-time gauges (per-instance state, store
// stats) without paying for them on request paths.
func (r *Registry) OnCollect(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, f)
}

func (r *Registry) register(name, help, typ string, labelNames []string, isFunc bool) *family {
	if !validName(name) {
		panic("metrics: invalid metric name " + name)
	}
	for _, l := range labelNames {
		if !validName(l) {
			panic("metrics: invalid label name " + l)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; ok {
		panic("metrics: duplicate metric " + name)
	}
	f := &family{
		name: name, help: help, typ: typ,
		labelNames: append([]string(nil), labelNames...),
		isFunc:     isFunc,
		children:   make(map[string]*child),
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// NewCounter registers an unlabelled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.register(name, help, typeCounter, nil, false).child(nil).counter
}

// NewCounterVec registers a counter family with the given label names.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, typeCounter, labelNames, false)}
}

// NewGauge registers an unlabelled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.register(name, help, typeGauge, nil, false).child(nil).gauge
}

// NewGaugeVec registers a gauge family with the given label names.
func (r *Registry) NewGaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, typeGauge, labelNames, false)}
}

// NewGaugeFunc registers a gauge whose value is read at render time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, typeGauge, nil, true)
	f.child(nil).fn = fn
}

// NewCounterFunc registers a counter whose cumulative value is read at
// render time — for monotone totals owned elsewhere (cache evictions,
// store stats).
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, typeCounter, nil, true)
	f.child(nil).fn = fn
}

// NewHistogram registers an unlabelled histogram.
func (r *Registry) NewHistogram(name, help string) *Histogram {
	return r.register(name, help, typeHistogram, nil, false).child(nil).hist
}

// NewHistogramVec registers a histogram family with the given label
// names.
func (r *Registry) NewHistogramVec(name, help string, labelNames ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, typeHistogram, labelNames, false)}
}

// CounterVec is a counter family; With resolves one labelled child.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values).counter }

// Remove drops the child with the given label values, if present.
func (v *CounterVec) Remove(values ...string) { v.f.remove(values) }

// Each visits every child in insertion order.
func (v *CounterVec) Each(visit func(labelValues []string, value int64)) {
	v.f.walk(func(c *child) { visit(c.labelValues, c.counter.Value()) })
}

// GaugeVec is a gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values, creating it on
// first use.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.child(values).gauge }

// Reset drops every child; collect hooks use it to rebuild scrape-time
// families from current state.
func (v *GaugeVec) Reset() { v.f.reset() }

// HistogramVec is a histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values, creating it
// on first use.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.child(values).hist }

// Each visits every child in insertion order.
func (v *HistogramVec) Each(visit func(labelValues []string, h *Histogram)) {
	v.f.walk(func(c *child) { visit(c.labelValues, c.hist) })
}

// collect runs r's collect hooks and returns its families.
func (r *Registry) collect() []*family {
	r.mu.Lock()
	collectors := append([]func(){}, r.collectors...)
	fams := append([]*family{}, r.families...)
	r.mu.Unlock()
	for _, f := range collectors {
		f()
	}
	return fams
}

// WritePrometheus renders every family of regs, in order, in the
// Prometheus text exposition format (version 0.0.4), running each
// registry's collect hooks first.
func WritePrometheus(w io.Writer, regs ...*Registry) error {
	var b strings.Builder
	for _, r := range regs {
		for _, f := range r.collect() {
			renderFamily(&b, f)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler serves regs as GET /metrics.
func Handler(regs ...*Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, regs...)
	}
}

// Varz returns the /varz view of regs, running their collect hooks
// first: every unlabelled counter as an int64 and every unlabelled
// gauge as a float64, keyed by VarzKey. Labelled families and
// histograms have no /varz key; a server summarises those itself.
func Varz(regs ...*Registry) map[string]any {
	out := map[string]any{}
	for _, r := range regs {
		for _, f := range r.collect() {
			if len(f.labelNames) > 0 || f.typ == typeHistogram {
				continue
			}
			f.walk(func(c *child) {
				switch {
				case c.fn != nil && f.typ == typeCounter:
					out[VarzKey(f.name)] = int64(c.fn())
				case c.fn != nil:
					out[VarzKey(f.name)] = c.fn()
				case c.counter != nil:
					out[VarzKey(f.name)] = c.counter.Value()
				case c.gauge != nil:
					out[VarzKey(f.name)] = c.gauge.Value()
				}
			})
		}
	}
	return out
}

// varzAliases keeps the /varz keys that predate the registry names.
var varzAliases = map[string]string{
	"ocqa_result_cache_hits_total":   "cache_hits",
	"ocqa_result_cache_misses_total": "cache_misses",
	"ocqa_result_cache_entries":      "cache_entries",
	"ocqa_instance_evictions_total":  "evictions",
	"ocqa_store_wal_appends_total":   "wal_appends",
	"ocqa_store_wal_records":         "wal_records",
	"ocqa_store_snapshots_total":     "snapshots",
	"ocqa_store_replayed_ops_total":  "replayed_ops",
	"ocqa_store_compactions_total":   "compactions",
}

// VarzKey is the /varz key of the series name: the name less its
// "ocqa_" prefix and "_total" suffix, or its entry in the alias table.
func VarzKey(name string) string {
	if k, ok := varzAliases[name]; ok {
		return k
	}
	return strings.TrimSuffix(strings.TrimPrefix(name, "ocqa_"), "_total")
}

func renderFamily(b *strings.Builder, f *family) {
	header := false
	writeHeader := func() {
		if header {
			return
		}
		header = true
		if f.help != "" {
			fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	}
	f.walk(func(c *child) {
		writeHeader()
		labels := labelString(f.labelNames, c.labelValues, "", "")
		switch {
		case c.fn != nil:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labels, formatFloat(c.fn()))
		case c.counter != nil:
			fmt.Fprintf(b, "%s%s %d\n", f.name, labels, c.counter.Value())
		case c.gauge != nil:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labels, formatFloat(c.gauge.Value()))
		case c.hist != nil:
			total := c.hist.cumulative(func(bound float64, cum int64) {
				le := labelString(f.labelNames, c.labelValues, "le", formatFloat(bound))
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, le, cum)
			})
			le := labelString(f.labelNames, c.labelValues, "le", "+Inf")
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, le, total)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labels, formatFloat(c.hist.Sum()))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labels, total)
		}
	})
	// Families with no children yet still advertise their type, so a
	// scrape before the first event is well-formed and complete.
	writeHeader()
}

func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteString(`"`)
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}
