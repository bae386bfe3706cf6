package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"time"

	"agsim/internal/experiments"
	"agsim/internal/workload"
)

// reportSecondsPerPass sizes the report workload: one full report per this
// many seconds of requested run length, at least one. A pass takes about
// that long at 2 workers on the 2-vCPU reference box.
const reportSecondsPerPass = 6

// reportWorkers is agsim's default worker count on the 2-vCPU reference box.
const reportWorkers = 2

// report runs every registered experiment at DefaultOptions fidelity, in
// registry order: the paper-reproduction user's `agsim report`.
type report struct {
	exps []experiments.Experiment
	opts experiments.Options
	sum  string
}

func (r *report) setup(b *bench) {
	sp := b.tr.begin("registry")
	r.exps = experiments.Registry()
	workload.All()
	b.tr.end(sp)
	r.opts = experiments.DefaultOptions()
	r.opts.Seed = b.seed
	r.opts.Workers = reportWorkers
}

func (r *report) run(b *bench) {
	var nsPerNodeSec, reqPerSec []float64
	for p := 0; p < max(1, b.seconds/reportSecondsPerPass); p++ {
		h := sha256.New()
		var wsqSec float64
		var wsqReq float64
		b.unit(func() {
			for i, e := range r.exps {
				b.tr.setOp(p*len(r.exps) + i)
				var rep experiments.Report
				start := time.Now()
				if !b.op(func() {
					sp := b.tr.begin("experiments." + e.ID)
					rep = e.Run(r.opts)
					b.tr.end(sp)
				}) {
					continue
				}
				if e.ID == "websearch-qos" {
					wsqSec = time.Since(start).Seconds()
					wsqReq = servedRequests(b, rep)
				}
				hashReport(b, h, e.ID, rep)
			}
		})
		if wsqSec == 0 || wsqReq == 0 {
			b.fail("report pass %d: websearch-qos did not run or served nothing", p)
			return
		}
		nsPerNodeSec = append(nsPerNodeSec, wsqSec*1e9/websearchNodeSeconds(r.opts))
		reqPerSec = append(reqPerSec, wsqReq/wsqSec)
		sum := hex.EncodeToString(h.Sum(nil))
		if p > 0 && sum != r.sum {
			b.fail("report pass %d digest %s differs from pass 0's %s", p, sum, r.sum)
		}
		r.sum = sum
	}
	b.metrics["ns_per_sim_s_node"] = quantile(nsPerNodeSec, 0.5)
	b.metrics["sim_req_per_s"] = quantile(reqPerSec, 0.5)
}

func (r *report) digest() string { return r.sum }

// hashReport folds an experiment's headline statistics into h, bit-exactly,
// and checks that each is finite.
func hashReport(b *bench, h hash.Hash, id string, rep experiments.Report) {
	fmt.Fprintf(h, "%s\n", id)
	for _, s := range rep.Headline {
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			b.fail("%s: %q is %v", id, s.Name, s.Value)
		}
		fmt.Fprintf(h, "%s=%016x\n", s.Name, math.Float64bits(s.Value))
	}
}

// servedRequests sums the requests websearch-qos admitted over its policy x
// load grid.
func servedRequests(b *bench, rep experiments.Report) float64 {
	for _, t := range rep.Tables {
		if col := t.Column("served"); col != nil {
			var n float64
			for _, v := range col {
				n += v
			}
			return n
		}
	}
	b.fail("websearch-qos: no served column")
	return 0
}

// websearchFleetNodes is the fleet size websearch-qos serves with when
// Options.Nodes is 0.
const websearchFleetNodes = 4

// websearchNodeSeconds is the simulated node-seconds one websearch-qos run
// covers: a one-node capacity probe plus every grid cell's fleet, each through
// the settle and measure spans.
func websearchNodeSeconds(o experiments.Options) float64 {
	span := o.SettleSec + o.MeasureSec
	cells := experiments.WebsearchQoSSimSeconds(o)/span - 1
	return span * (1 + cells*websearchFleetNodes)
}
