package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"time"

	"agsim/internal/amester"
	"agsim/internal/experiments"
	"agsim/internal/firmware"
	"agsim/internal/fleet"
	"agsim/internal/health"
	"agsim/internal/obs"
	"agsim/internal/server"
	"agsim/internal/traffic"
	"agsim/internal/tsdb"
	"agsim/internal/workload"
)

const (
	// epochSec is the traffic epoch: capacity is read and the generator
	// and fleet advanced once per epoch, as websearch-qos does.
	epochSec = 0.25
	// ratePerNode is 90% of a static node's ~48 GIPS serving capacity at
	// demandGInst per request.
	ratePerNode = 108
	demandGInst = 0.4
	// readEvery is the dashboard reader's period in epochs (8 simulated
	// seconds).
	readEvery = 32
	// serveUnitEpochs is serve's unit of timed work; one unit, and five
	// observe read cycles, take about a second on the 2-vCPU reference box,
	// and the timed section runs one second's worth per second of requested
	// run length. observe makes two queries per read cycle, so a 10 s run
	// makes 100.
	serveUnitEpochs       = 10
	observeUnitsPerSecond = 5
	// prefillLimitSec bounds observe's ring pre-fill.
	prefillLimitSec = 400
)

// policies are websearch-qos's three guardband policies; node i runs
// policies[i%3].
var policies = []firmware.Mode{firmware.Static, firmware.Undervolt, firmware.Overclock}

// dashboard is the reader's query set, each with the layer its span names.
var dashboard = []struct{ path, layer string }{
	{"/health", "amester.health"},
	{"/timeseries?name=power_w&res=1", "amester.timeseries"},
}

// serve drives a websearch fleet under open-loop traffic, one epoch at a
// time, on the default scalar stepping lane with one worker. With observe
// set it also records the telemetry plane and serves a dashboard reader
// through amester's HTTP handler, in-process.
type serve struct {
	nodes   int
	observe bool

	f       *fleet.Fleet
	gen     *traffic.Generator
	rec     *obs.Recorder
	handler http.Handler
	caps    []float64
	status  string    // the last /health status
	snapMiB []float64 // MiB one direct Snapshot allocated, per read
	sum     string
}

func newServe(nodes int, observe bool) *serve { return &serve{nodes: nodes, observe: observe} }

func (s *serve) setup(b *bench) {
	o := experiments.DefaultOptions()
	if s.observe {
		s.rec = obs.New("observe", obs.DefaultEventCap)
		s.rec.EnableTimeSeries(tsdb.CompactSpec())
	}
	sp := b.tr.begin("fleet.new")
	tmpl := server.DefaultConfig(b.seed)
	s.f = fleet.MustNew(fleet.Config{Nodes: s.nodes, Template: tmpl, Workers: 1, Recorder: s.rec})
	ws := workload.MustGet("websearch")
	pl := make([]server.Placement, tmpl.Sockets*tmpl.CoresPerSocket)
	for c := range pl {
		pl[c] = server.Placement{Socket: c / tmpl.CoresPerSocket, Core: c % tmpl.CoresPerSocket}
	}
	for i := 0; i < s.nodes; i++ {
		n := s.f.Node(i)
		n.MustSubmit("serve", ws, pl, 1e9)
		n.SetMode(policies[i%len(policies)])
	}
	b.tr.end(sp)

	sp = b.tr.begin("fleet.settle")
	s.f.Advance(o.SettleSec)
	s.f.ResetEnergy()
	b.tr.end(sp)

	sp = b.tr.begin("traffic.new")
	s.gen = traffic.New(traffic.Config{
		Nodes:            s.nodes,
		RatePerSec:       ratePerNode,
		DemandGInst:      demandGInst,
		DiurnalAmplitude: 0.1,
		DiurnalPeriodSec: o.MeasureSec,
		BurstRatePerSec:  math.Round(2/o.MeasureSec*8) / 8,
		BurstMeanSec:     o.MeasureSec / 32,
		BurstFactor:      1.25,
		QueueCap:         256,
		Seed:             b.seed,
		Recorder:         s.rec.Shard("traffic"),
	})
	s.caps = make([]float64, s.nodes)
	b.tr.end(sp)

	if s.observe {
		s.handler = amester.NewAPI(amester.APIConfig{Recorder: s.rec, SimTime: s.f.Time}).Handler()
		sp = b.tr.begin("obs.prefill")
		s.prefill(b)
		b.tr.end(sp)
	}
}

// prefill advances until every node shard's event ring has wrapped, so a
// Snapshot's cost no longer grows with run length.
func (s *serve) prefill(b *bench) {
	for t := 0.0; t < prefillLimitSec; t += readEvery * epochSec {
		for e := 0; e < readEvery; e++ {
			s.epoch(b)
		}
		if s.ringsWrapped() {
			return
		}
	}
	panic(fmt.Sprintf("observe: event rings not wrapped after %d simulated seconds", prefillLimitSec))
}

// fleetNodeShard matches the recorder shard fleet.New gives each node.
var fleetNodeShard = regexp.MustCompile(`^shard\d+/node\d+$`)

// ringsWrapped reports whether every node shard has lost events.
func (s *serve) ringsWrapped() bool {
	lg := s.rec.Snapshot()
	nodes := 0
	for _, sh := range lg.Shards {
		if fleetNodeShard.MatchString(sh.Name) {
			nodes++
			if sh.EventsLost == 0 {
				return false
			}
		}
	}
	return nodes == s.nodes
}

// epoch reads capacity, serves the epoch's requests and advances the fleet,
// as websearch-qos does. It returns the wall time of the three calls.
func (s *serve) epoch(b *bench) time.Duration {
	ep := b.tr.begin("epoch")
	start := time.Now()
	sp := b.tr.begin("fleet.capacity_read")
	for i := range s.caps {
		// Integer GIPS, as websearch-qos quantizes it.
		s.caps[i] = math.Max(1, math.Round(s.f.NodeMIPS(i)/1000))
	}
	b.tr.end(sp)
	sp = b.tr.begin("traffic.epoch")
	s.gen.Epoch(s.f.Pool(), epochSec, s.caps)
	b.tr.end(sp)
	sp = b.tr.begin("fleet.advance")
	s.f.Advance(epochSec)
	b.tr.end(sp)
	d := time.Since(start)
	b.tr.end(ep)
	return d
}

func (s *serve) run(b *bench) {
	units, unitEpochs := b.seconds, serveUnitEpochs
	if s.observe {
		units, unitEpochs = observeUnitsPerSecond*b.seconds, readEvery
	}
	var nsPerNodeSec, reqPerSec, queryMS []float64
	op := 0
	for u := 0; u < units; u++ {
		admitted0 := s.gen.Latency().Completed
		var simNS int64
		ok := true
		wall := b.unit(func() {
			for e := 0; e < unitEpochs && ok; e++ {
				b.tr.setOp(op)
				op++
				ok = b.op(func() {
					simNS += s.epoch(b).Nanoseconds()
					for i, c := range s.caps {
						if math.IsNaN(c) || math.IsInf(c, 0) {
							b.fail("epoch %d: node %d capacity %v", op, i, c)
						}
					}
				})
			}
			if !ok || !s.observe {
				return
			}
			for _, q := range dashboard {
				b.tr.setOp(op)
				op++
				b.op(func() { queryMS = append(queryMS, s.query(b, q.path, q.layer)) })
			}
		})
		if !ok {
			break
		}
		if b.tr.on && s.observe {
			b.tr.setOp(op)
			op++
			s.readDirect(b)
		}
		nsPerNodeSec = append(nsPerNodeSec, float64(simNS)/(float64(s.nodes)*float64(unitEpochs)*epochSec))
		reqPerSec = append(reqPerSec, float64(s.gen.Latency().Completed-admitted0)/wall)
	}
	s.check(b)
	b.metrics["ns_per_sim_s_node"] = quantile(nsPerNodeSec, 0.5)
	b.metrics["sim_req_per_s"] = quantile(reqPerSec, 0.5)
	if b.tr.on {
		b.metrics["query_ms_p50"] = quantile(queryMS, 0.5)
		b.metrics["query_ms_p90"] = quantile(queryMS, 0.9)
		s.counts(b, units*unitEpochs)
	}
}

// query serves one dashboard GET through the API handler and checks the
// response. It returns the ServeHTTP latency in ms.
func (s *serve) query(b *bench, path, layer string) float64 {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	sp := b.tr.begin(layer)
	start := time.Now()
	s.handler.ServeHTTP(w, req)
	d := time.Since(start)
	b.tr.end(sp)
	body := w.Body.Bytes()
	switch {
	case w.Code != http.StatusOK:
		b.fail("GET %s: status %d", path, w.Code)
	case !json.Valid(body):
		b.fail("GET %s: invalid JSON", path)
	case layer == "amester.health":
		var h struct{ Status string }
		if err := json.Unmarshal(body, &h); err != nil || h.Status == "" {
			b.fail("GET %s: no status (%v)", path, err)
		}
		s.status = h.Status
	}
	return float64(d.Nanoseconds()) / 1e6
}

// readDirect times the calls the dashboard handlers are made of, and the
// bytes one Snapshot allocates. It runs in traced runs only.
func (s *serve) readDirect(b *bench) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := b.tr.begin("obs.snapshot")
	lg := s.rec.Snapshot()
	b.tr.end(sp)
	runtime.ReadMemStats(&m1)
	s.snapMiB = append(s.snapMiB, float64(m1.TotalAlloc-m0.TotalAlloc)/mib)
	sp = b.tr.begin("health.evaluate")
	health.Evaluate(&lg, health.Default())
	b.tr.end(sp)
	sp = b.tr.begin("obs.merged_series")
	lg.MergedSeries("power_w")
	b.tr.end(sp)
}

// check verifies the run's invariants and hashes the outputs the golden
// digest covers: the latency summary, the fleet energy and, on observe, the
// last /health status.
func (s *serve) check(b *bench) {
	sum := s.gen.Latency()
	energy := s.f.TotalEnergyJ()
	for name, v := range map[string]float64{
		"mean": sum.MeanSec, "p50": sum.P50Sec, "p95": sum.P95Sec, "p99": sum.P99Sec, "max": sum.MaxSec, "energy": energy,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.fail("%s is %v", name, v)
		}
	}
	if arrivals := s.arrivals(); arrivals != sum.Completed+sum.Dropped {
		b.fail("arrivals %d != completed %d + dropped %d", arrivals, sum.Completed, sum.Dropped)
	}
	h := sha256.New()
	fmt.Fprintf(h, "completed=%d dropped=%d mean=%016x p50=%016x p95=%016x p99=%016x max=%016x energy=%016x status=%s\n",
		sum.Completed, sum.Dropped, math.Float64bits(sum.MeanSec), math.Float64bits(sum.P50Sec),
		math.Float64bits(sum.P95Sec), math.Float64bits(sum.P99Sec), math.Float64bits(sum.MaxSec),
		math.Float64bits(energy), s.status)
	s.sum = hex.EncodeToString(h.Sum(nil))
}

func (s *serve) arrivals() uint64 {
	var n uint64
	for i := 0; i < s.nodes; i++ {
		n += s.gen.NodeSnapshot(i).Seq
	}
	return n
}

// counts adds the exact work counts that certify equal work on two commits.
func (s *serve) counts(b *bench, epochs int) {
	sum := s.gen.Latency()
	b.metrics["fleet.node_sim_s"] = float64(s.nodes) * float64(epochs) * epochSec
	b.metrics["traffic.arrivals"] = float64(s.arrivals())
	b.metrics["traffic.completed"] = float64(sum.Completed)
	b.metrics["traffic.dropped"] = float64(sum.Dropped)
	if s.observe {
		lg := s.rec.Snapshot()
		b.metrics["obs.events"] = float64(len(lg.Events))
		b.metrics["obs.events_lost"] = float64(lg.EventsLost)
		b.metrics["obs.series"] = float64(len(lg.Series))
		b.metrics["obs.snapshot_mib"] = quantile(s.snapMiB, 0.5)
	}
}

func (s *serve) digest() string { return s.sum }
