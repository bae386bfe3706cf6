package main

import (
	"encoding/json"
	"maps"
	"os"
	"slices"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function. Spans of one op (an experiment, an epoch or a query) share
// Op; set-up spans have Op -1.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"` // index of the enclosing span, -1 for none
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; a tracer that is off records nothing.
type tracer struct {
	on    bool
	t0    time.Time
	op    int
	spans []span
	open  []int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now(), op: -1} }

// setOp makes later spans belong to op.
func (t *tracer) setOp(op int) { t.op = op }

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, StartNS: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	t.spans[i].EndNS = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// unwind closes the spans a panic left open above depth.
func (t *tracer) unwind(depth int) {
	for len(t.open) > depth {
		t.end(t.open[len(t.open)-1])
	}
}

// layer aggregates the spans of one name.
type layer struct {
	Count   int       `json:"count"`
	TotalS  float64   `json:"total_s"`
	SelfS   float64   `json:"self_s"`
	opDursS []float64 // durations of spans inside ops (Op >= 0)
}

// layers derives each span name's total and self time. A span's self time is
// its duration minus the time its children cover; children of one span run
// one after another, so their durations add.
func (t *tracer) layers() map[string]*layer {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += float64(s.EndNS-s.StartNS) / 1e9
		}
	}
	out := map[string]*layer{}
	for i, s := range t.spans {
		l := out[s.Name]
		if l == nil {
			l = &layer{}
			out[s.Name] = l
		}
		d := float64(s.EndNS-s.StartNS) / 1e9
		l.Count++
		l.TotalS += d
		l.SelfS += d - child[i]
		if s.Op >= 0 {
			l.opDursS = append(l.opDursS, d)
		}
	}
	return out
}

// layerMetrics adds the span-derived per-layer metrics to m.
func (t *tracer) layerMetrics(m map[string]float64) {
	ls := t.layers()
	for name, l := range ls {
		switch {
		case strings.HasPrefix(name, "experiments."): // one span per report pass
			m[name+"_s"] = quantile(l.opDursS, 0.5)
		case name == "fleet.new" || name == "fleet.settle" || name == "obs.prefill": // one span each
			m[name+"_s"] = l.TotalS
		}
	}
	p := func(metric, name string, q float64) {
		if l := ls[name]; l != nil {
			m[metric] = quantile(l.opDursS, q) * 1e3
		}
	}
	p("fleet.advance_ms_p50", "fleet.advance", 0.5)
	p("traffic.epoch_ms_p50", "traffic.epoch", 0.5)
	p("fleet.capacity_read_ms_p50", "fleet.capacity_read", 0.5)
	p("epoch_ms_p50", "epoch", 0.5)
	p("epoch_ms_p90", "epoch", 0.9)
	p("amester.health_ms_p50", "amester.health", 0.5)
	p("amester.timeseries_ms_p50", "amester.timeseries", 0.5)
	p("obs.snapshot_ms_p50", "obs.snapshot", 0.5)
	p("health.evaluate_ms_p50", "health.evaluate", 0.5)
	p("obs.merged_series_ms_p50", "obs.merged_series", 0.5)
}

// write saves every span and the per-layer totals as JSON.
func (t *tracer) write(path string) error {
	ls := t.layers()
	names := slices.Sorted(maps.Keys(ls))
	type row struct {
		Name string `json:"name"`
		*layer
	}
	rows := make([]row, len(names))
	for i, n := range names {
		rows[i] = row{n, ls[n]}
	}
	data, err := json.Marshal(struct {
		Layers []row  `json:"layers"`
		Spans  []span `json:"spans"`
	}{rows, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
