// Package agsim_test benchmarks regenerate every table and figure of the
// paper's evaluation. Each benchmark runs the corresponding experiment
// driver and reports the headline statistics as custom benchmark metrics,
// so `go test -bench=. -benchmem` doubles as a regression harness for the
// reproduced results.
//
// Benchmarks default to the reduced (Quick) sweeps so the full suite stays
// in benchmark-friendly time; set AGSIM_BENCH_FULL=1 for the full-fidelity
// sweeps used to produce EXPERIMENTS.md.
package agsim_test

import (
	"fmt"
	"math"
	"os"
	"testing"

	"agsim/internal/chip"
	"agsim/internal/cluster"
	"agsim/internal/experiments"
	"agsim/internal/firmware"
	"agsim/internal/fleet"
	"agsim/internal/obs"
	"agsim/internal/pdn"
	"agsim/internal/sample"
	"agsim/internal/server"
	"agsim/internal/traffic"
	"agsim/internal/tsdb"
	"agsim/internal/workload"
)

func benchOptions() experiments.Options {
	if os.Getenv("AGSIM_BENCH_FULL") != "" {
		return experiments.DefaultOptions()
	}
	return experiments.QuickOptions()
}

func BenchmarkFig03CoreScalingPower(b *testing.B) {
	o := benchOptions()
	var r experiments.Fig03Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig03CoreScaling(o)
	}
	b.ReportMetric(r.SavingAt1, "saving@1core_%")
	b.ReportMetric(r.SavingAt8, "saving@8core_%")
	b.ReportMetric(r.EDPImprovementAt1, "edp@1core_%")
}

func BenchmarkFig04FrequencyBoost(b *testing.B) {
	o := benchOptions()
	var r experiments.Fig04Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig04FrequencyBoost(o)
	}
	b.ReportMetric(r.BoostAt1, "boost@1core_%")
	b.ReportMetric(r.BoostAt8, "boost@8core_%")
	b.ReportMetric(r.SpeedupAt1, "speedup@1core_%")
	b.ReportMetric(r.SpeedupAt8, "speedup@8core_%")
}

func BenchmarkFig05Heterogeneity(b *testing.B) {
	o := benchOptions()
	var r experiments.Fig05Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig05Heterogeneity(o)
	}
	b.ReportMetric(r.AvgPowerAt1, "avg@1core_%")
	b.ReportMetric(r.AvgPowerAt8, "avg@8core_%")
	b.ReportMetric(r.MaxFreqAt1, "maxfreq@1core_%")
}

func BenchmarkFig06CPMCalibration(b *testing.B) {
	o := benchOptions()
	var r experiments.Fig06Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig06CPMCalibration(o)
	}
	b.ReportMetric(r.MVPerBitAtPeak, "mV/bit@4.2GHz")
	b.ReportMetric(r.R2AtPeak, "R2")
}

func BenchmarkFig07VoltageDrop(b *testing.B) {
	o := benchOptions()
	var r experiments.Fig07Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig07VoltageDrop(o)
	}
	b.ReportMetric(r.Core0DropAt1, "drop@1core_%")
	b.ReportMetric(r.Core0DropAt8, "drop@8core_%")
}

func BenchmarkFig09Decomposition(b *testing.B) {
	o := benchOptions()
	var r experiments.Fig09Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig09Decomposition(o)
	}
	b.ReportMetric(r.PassiveShareAt8, "passive_share")
	b.ReportMetric(r.TypTrend, "typ_trend_%")
	b.ReportMetric(r.WorstTrend, "worst_trend_%")
}

func BenchmarkFig10PassiveDropCorrelation(b *testing.B) {
	o := benchOptions()
	var r experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig10PassiveDropCorrelation(o)
	}
	b.ReportMetric(r.PowerPassiveR2, "R2")
	b.ReportMetric(r.UndervoltSlope, "uv_slope_mV/mV")
	b.ReportMetric(r.SavingMax, "saving_max_%")
}

func BenchmarkFig12LoadlineBorrowing(b *testing.B) {
	o := benchOptions()
	var r experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig12LoadlineBorrowing(o)
	}
	b.ReportMetric(r.ExtraUndervoltAt8, "extra_uv@8core_mV")
	b.ReportMetric(r.ImprovementAt8, "improvement@8core_%")
}

func BenchmarkFig13BorrowingSweep(b *testing.B) {
	o := benchOptions()
	var r experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig13BorrowingSweep(o)
	}
	b.ReportMetric(r.AvgBaselineAt8, "baseline@8core_%")
	b.ReportMetric(r.AvgBorrowingAt8, "borrowing@8core_%")
}

func BenchmarkFig14FullSuite(b *testing.B) {
	o := benchOptions()
	var r experiments.Fig14Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig14FullSuite(o)
	}
	b.ReportMetric(r.AvgPowerImprovement, "avg_power_%")
	b.ReportMetric(r.AvgEnergyImprovement, "avg_energy_%")
	b.ReportMetric(r.BestEnergy, "best_energy_%")
}

func BenchmarkFig15Colocation(b *testing.B) {
	o := benchOptions()
	var r experiments.Fig15Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig15Colocation(o)
	}
	b.ReportMetric(r.CoremarkOnly, "coremark_only_MHz")
	b.ReportMetric(r.SwingMHz, "swing_MHz")
}

func BenchmarkFig16MIPSPredictor(b *testing.B) {
	o := benchOptions()
	var r experiments.Fig16Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig16MIPSPredictor(o)
	}
	b.ReportMetric(r.RelRMSE*100, "rel_rmse_%")
	b.ReportMetric(r.SlopeMHzPerKMIPS, "slope_MHz/kMIPS")
}

func BenchmarkFig17AdaptiveMapping(b *testing.B) {
	o := benchOptions()
	var r experiments.Fig17Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig17AdaptiveMapping(o)
	}
	b.ReportMetric(r.ViolationHeavy*100, "viol_heavy_%")
	b.ReportMetric(r.ViolationAfterSwap*100, "viol_after_swap_%")
	b.ReportMetric(r.TailImprovementPct, "tail_improvement_%")
}

// Microbenchmarks for the simulator's hot paths.

func BenchmarkChipStep(b *testing.B) {
	c := chip.MustNew(chip.DefaultConfig("bench", 1))
	d := workload.MustGet("raytrace")
	for i := 0; i < 8; i++ {
		c.Place(i, workload.NewThread(d, 1e12, nil))
	}
	c.SetMode(firmware.Undervolt)
	c.Settle(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step(chip.DefaultStepSec)
	}
}

// BenchmarkChipStepRecorded is BenchmarkChipStep with the flight recorder
// attached and its event ring enabled. The recorder's contract is 0
// allocs/op and ns/op within a few percent of the uninstrumented loop
// (scripts/bench_compare.sh gates the ratio); every emission site is a
// nil-check plus array writes into storage preallocated at construction.
func BenchmarkChipStepRecorded(b *testing.B) {
	rec := obs.New("bench", obs.DefaultEventCap)
	cfg := chip.DefaultConfig("bench", 1)
	cfg.Recorder = rec
	c := chip.MustNew(cfg)
	d := workload.MustGet("raytrace")
	for i := 0; i < 8; i++ {
		c.Place(i, workload.NewThread(d, 1e12, nil))
	}
	c.SetMode(firmware.Undervolt)
	c.Settle(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step(chip.DefaultStepSec)
	}
}

// BenchmarkChipStepTimeseries is BenchmarkChipStepRecorded with the
// telemetry plane on top: multi-resolution series (power, frequency,
// rail, margin) plus the per-tick attribution record. The plane's
// contract is 0 allocs/op and ns/op within a few percent of the plain
// step loop (scripts/bench_compare.sh gates the ratio via
// TSDB_THRESHOLD_PCT); every Push is a ring-index fold into storage
// preallocated when the series was bound.
func BenchmarkChipStepTimeseries(b *testing.B) {
	rec := obs.New("bench", obs.DefaultEventCap)
	rec.EnableTimeSeries(tsdb.DefaultSpec())
	cfg := chip.DefaultConfig("bench", 1)
	cfg.Recorder = rec
	c := chip.MustNew(cfg)
	d := workload.MustGet("raytrace")
	for i := 0; i < 8; i++ {
		c.Place(i, workload.NewThread(d, 1e12, nil))
	}
	c.SetMode(firmware.Undervolt)
	c.Settle(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step(chip.DefaultStepSec)
	}
}

// TestChipStepTimeseriesZeroAlloc pins the telemetry plane's
// zero-allocation contract on the instrumented step loop, so `go test`
// alone catches a regression that puts an allocation on a series push or
// the attribution emission.
func TestChipStepTimeseriesZeroAlloc(t *testing.T) {
	rec := obs.New("alloc", obs.DefaultEventCap)
	rec.EnableTimeSeries(tsdb.DefaultSpec())
	cfg := chip.DefaultConfig("alloc", 1)
	cfg.Recorder = rec
	c := chip.MustNew(cfg)
	d := workload.MustGet("raytrace")
	for i := 0; i < 8; i++ {
		c.Place(i, workload.NewThread(d, 1e12, nil))
	}
	c.SetMode(firmware.Undervolt)
	c.Settle(1)
	if got := testing.AllocsPerRun(2000, func() {
		c.Step(chip.DefaultStepSec)
	}); got != 0 {
		t.Errorf("timeseries-instrumented chip step allocates %v allocs/op, want 0", got)
	}
}

// TestChipStepRecordedZeroAlloc pins the recorder's zero-allocation
// contract outside the benchmark harness, so `go test` alone catches a
// regression that puts an allocation on the instrumented step path.
func TestChipStepRecordedZeroAlloc(t *testing.T) {
	rec := obs.New("alloc", obs.DefaultEventCap)
	cfg := chip.DefaultConfig("alloc", 1)
	cfg.Recorder = rec
	c := chip.MustNew(cfg)
	d := workload.MustGet("raytrace")
	for i := 0; i < 8; i++ {
		c.Place(i, workload.NewThread(d, 1e12, nil))
	}
	c.SetMode(firmware.Undervolt)
	c.Settle(1)
	if got := testing.AllocsPerRun(2000, func() {
		c.Step(chip.DefaultStepSec)
	}); got != 0 {
		t.Errorf("instrumented chip step allocates %v allocs/op, want 0", got)
	}
}

// BenchmarkSnapshotFullRings is the telemetry read path's rung: one
// obs.Snapshot of the observe-workload shape — eight node shards, each
// with a DefaultEventCap event ring wrapped once and a power series — the
// merge every /health, /timeseries and /metrics request pays. The events
// arrive in per-shard time order interleaved across shards, so the
// k-way merge switches run at almost every record; B/op is dominated by
// the one allocation of the merged event slice.
func BenchmarkSnapshotFullRings(b *testing.B) {
	rec := obs.New("fleet", obs.DefaultEventCap)
	rec.EnableTimeSeries(tsdb.DefaultSpec())
	for s := 0; s < 8; s++ {
		sh := rec.Shard(fmt.Sprintf("node%d", s))
		src := sh.Source("chip")
		ts := sh.Series(src, "power_w")
		for i := 0; i < obs.DefaultEventCap*3/2; i++ {
			tus := int64(i)*1000 + int64(s%3)
			sh.Emit(obs.Event{TimeUS: tus, Kind: obs.KindWindow, Source: src, Core: -1})
			if i%32 == 0 {
				ts.Push(tus, float64(i%100))
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rec.Snapshot()
	}
}

// BenchmarkChipStepMesh is BenchmarkChipStep on the mesh-fidelity lane:
// the distributed-grid PDN solved through the precomputed
// transfer-resistance matrix. The kernel's contract is 0 allocs/op and
// ns/op within ~2x of the lumped plane — constant time in the grid size.
func BenchmarkChipStepMesh(b *testing.B) {
	c := chip.MustNew(chip.DefaultConfig("bench", 1).WithMesh())
	d := workload.MustGet("raytrace")
	for i := 0; i < 8; i++ {
		c.Place(i, workload.NewThread(d, 1e12, nil))
	}
	c.SetMode(firmware.Undervolt)
	c.Settle(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step(chip.DefaultStepSec)
	}
}

// BenchmarkNewMesh prices the one-off setup the constant-time step buys:
// Laplacian assembly, sparse Cholesky, and Cores+1 unit-injection solves.
// It calls pdn.NewMesh directly because chip construction now draws the
// kernel from the process-wide cache and no longer pays this cost.
func BenchmarkNewMesh(b *testing.B) {
	mp := pdn.DefaultMeshParams()
	var m *pdn.Mesh
	for i := 0; i < b.N; i++ {
		var err error
		m, err = pdn.NewMesh(mp)
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = m
}

// BenchmarkSharedMeshHit prices what mesh-lane chip construction pays
// instead of BenchmarkNewMesh: one lookup in the shared kernel cache.
func BenchmarkSharedMeshHit(b *testing.B) {
	mp := pdn.DefaultMeshParams()
	if _, err := pdn.SharedMesh(mp); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pdn.SharedMesh(mp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChipStepOverclock(b *testing.B) {
	c := chip.MustNew(chip.DefaultConfig("bench", 1))
	d := workload.MustGet("lu_cb")
	for i := 0; i < 8; i++ {
		c.Place(i, workload.NewThread(d, 1e12, nil))
	}
	c.SetMode(firmware.Overclock)
	c.Settle(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step(chip.DefaultStepSec)
	}
}

// Sweep-engine benches: the same driver serial vs on a four-worker pool.
// On a multi-core host the parallel run should show a multi-× wall-clock
// win with bit-identical metrics (pinned by TestFig03ParallelBitIdentical).

func benchSweep(b *testing.B, workers int, mesh bool) {
	o := benchOptions()
	o.Workers = workers
	o.Mesh = mesh
	var r experiments.Fig14Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig14FullSuite(o)
	}
	b.ReportMetric(r.AvgPowerImprovement, "avg_power_imp_%")
}

func BenchmarkSweepSerial(b *testing.B)   { benchSweep(b, 1, false) }
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 4, false) }

// Mesh-fidelity sweep lanes: the same driver with every chip on the
// distributed-grid PDN, pricing the transfer-matrix kernel end to end.
func BenchmarkSweepSerialMesh(b *testing.B)   { benchSweep(b, 1, true) }
func BenchmarkSweepParallelMesh(b *testing.B) { benchSweep(b, 4, true) }

// Warm-start benches: the settle-dominated steady-state sweep, cold vs
// restoring each point's settled baseline from the snapshot cache. The
// exact 1 ms lane is where settling dominates a point's wall-clock (the
// macro lane leaps through it), so that pair carries the gate:
// BenchmarkSweepSteadyExact / BenchmarkSweepWarmStartExact ns/op is the
// warm-start speedup scripts/bench_compare.sh holds above
// WARMSTART_SPEEDUP_MIN, and snap_bytes (the cache's resident image
// total) stays under SNAP_BYTES_BUDGET.

// benchSweepSteady runs the full-suite borrowing sweep (Fig13), a pure
// settle-then-measure driver with no run-to-completion span diluting the
// settle share.
func benchSweepSteady(b *testing.B, exact, warm bool) {
	experiments.ResetWarmCache()
	defer experiments.ResetWarmCache()
	o := benchOptions()
	o.Workers = 1
	o.Exact = exact
	o.WarmStart = warm
	var r experiments.Fig13Result
	if warm {
		r = experiments.Fig13BorrowingSweep(o) // prime the cache, untimed
		b.ResetTimer()
	}
	for i := 0; i < b.N; i++ {
		r = experiments.Fig13BorrowingSweep(o)
	}
	if warm {
		st := experiments.WarmCacheStats()
		b.ReportMetric(float64(st.Bytes), "snap_bytes")
	}
	b.ReportMetric(r.AvgBorrowingAt8, "borrowing@8core_%")
}

func BenchmarkSweepSteadyExact(b *testing.B)    { benchSweepSteady(b, true, false) }
func BenchmarkSweepWarmStartExact(b *testing.B) { benchSweepSteady(b, true, true) }

// Macro-lane twin: the event-horizon lane already leaps through most of
// the settle span, so the warm win here is modest — reported for the
// record, not gated.
func BenchmarkSweepWarmStart(b *testing.B) { benchSweepSteady(b, false, true) }

// BenchmarkSweepWarmStartFullSuite warm-starts the run-to-completion full
// suite (Fig14): the settle share is smaller there, so this tracks the
// blended win on a mixed driver rather than the gated ceiling.
func BenchmarkSweepWarmStartFullSuite(b *testing.B) {
	experiments.ResetWarmCache()
	defer experiments.ResetWarmCache()
	o := benchOptions()
	o.Workers = 1
	o.Exact = true
	o.WarmStart = true
	var r experiments.Fig14Result
	r = experiments.Fig14FullSuite(o)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = experiments.Fig14FullSuite(o)
	}
	b.ReportMetric(r.AvgPowerImprovement, "avg_power_imp_%")
}

func BenchmarkFig07VoltageDropMesh(b *testing.B) {
	o := benchOptions()
	o.Mesh = true
	var r experiments.Fig07Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig07VoltageDrop(o)
	}
	b.ReportMetric(r.Core0DropAt1, "drop@1core_%")
	b.ReportMetric(r.Core0DropAt8, "drop@8core_%")
}

// Multi-rate lane benches: the sweep and datacenter drivers on the pure
// 1 ms reference lane (Options.Exact, the -exact flag). Their macro
// counterparts above run the default event-horizon macro-stepping; the
// wall-clock ratio between each pair is the speedup the multi-rate engine
// buys (scripts/bench_compare.sh reports it per recording). The paired
// headline metrics agree within 1% — pinned by the accuracy harness in
// internal/experiments/accuracy_test.go.

func BenchmarkSweepSerialExact(b *testing.B) {
	o := benchOptions()
	o.Workers = 1
	o.Exact = true
	var r experiments.Fig14Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig14FullSuite(o)
	}
	b.ReportMetric(r.AvgPowerImprovement, "avg_power_imp_%")
}

func BenchmarkDatacenterSweepSerialExact(b *testing.B) {
	o := benchOptions()
	o.Workers = 1
	o.Exact = true
	var r experiments.DatacenterResult
	for i := 0; i < b.N; i++ {
		r = experiments.DatacenterSweep(o)
	}
	b.ReportMetric(r.SavingAtHalfLoad, "ags_vs_naive_%")
	b.ReportMetric(experiments.DatacenterSimSeconds(o), "sim_s/op")
}

func BenchmarkDatacenterSweepSerial(b *testing.B) {
	o := benchOptions()
	o.Workers = 1
	var r experiments.DatacenterResult
	for i := 0; i < b.N; i++ {
		r = experiments.DatacenterSweep(o)
	}
	b.ReportMetric(r.SavingAtHalfLoad, "ags_vs_naive_%")
	b.ReportMetric(experiments.DatacenterSimSeconds(o), "sim_s/op")
}

func BenchmarkDatacenterSweepParallel(b *testing.B) {
	o := benchOptions()
	o.Workers = 4
	var r experiments.DatacenterResult
	for i := 0; i < b.N; i++ {
		r = experiments.DatacenterSweep(o)
	}
	b.ReportMetric(r.SavingAtHalfLoad, "ags_vs_naive_%")
	b.ReportMetric(experiments.DatacenterSimSeconds(o), "sim_s/op")
}

// Fleet-scale pair: the datacenter sweep at 64 nodes, scalar vs on the
// structure-of-arrays batch engine, at an equal sweep worker count. The
// batched lane must produce bit-identical results (pinned by the identity
// tests in internal/experiments) at a multi-× wall-clock win — the
// BATCH_SPEEDUP_MIN gate in scripts/bench_compare.sh holds the ratio. One
// untimed warm-up run fills the chip/server/cluster arenas and the engine
// pool so the timed iterations measure the pooled steady state.
func benchDatacenterFleet(b *testing.B, batched bool) {
	o := benchOptions()
	o.Workers = 4
	o.Nodes = 64
	o.Batched = batched
	experiments.DatacenterSweep(o)
	b.ResetTimer()
	var r experiments.DatacenterResult
	for i := 0; i < b.N; i++ {
		r = experiments.DatacenterSweep(o)
	}
	b.ReportMetric(r.SavingAtHalfLoad, "ags_vs_naive_%")
	b.ReportMetric(experiments.DatacenterSimSeconds(o), "sim_s/op")
}

func BenchmarkDatacenterSweepParallel64(b *testing.B)        { benchDatacenterFleet(b, false) }
func BenchmarkDatacenterSweepParallel64Batched(b *testing.B) { benchDatacenterFleet(b, true) }

// benchFleetAdvance measures the sharded fleet engine's steady-state cost
// at a given fleet size: every node serves websearch on all cores under
// adaptive undervolting, open-loop traffic arrives at 75% of nominal
// per-node capacity, and each op advances the whole fleet through one
// traffic epoch (capacity read, arrival fan-out, shard-local advance
// loops). The headline metric is ns/sim_s_node — wall-clock nanoseconds
// per simulated second per node — which must stay near-flat as the fleet
// grows for the sharding claim to hold; scripts/bench_compare.sh holds the
// 4096-vs-256 ratio to FLEET_SCALING_MAX. The settle span runs untimed so
// the timed epochs measure the multi-rate steady state, and they must not
// allocate: the advance fan-out and the traffic epoch both run on stored
// state.
func benchFleetAdvance(b *testing.B, nodes int, timeseries bool) {
	const epochSec = 0.25
	cfg := server.DefaultConfig(1)
	var rec *obs.Recorder
	if timeseries {
		rec = obs.New("bench", obs.DefaultEventCap)
		rec.EnableTimeSeries(tsdb.CompactSpec())
	}
	f := fleet.MustNew(fleet.Config{
		Nodes:    nodes,
		Template: cfg,
		Workers:  4,
		Batched:  true,
		Recorder: rec,
	})
	defer f.Close()
	ws := workload.MustGet("websearch")
	pl := make([]server.Placement, cfg.Sockets*cfg.CoresPerSocket)
	for c := range pl {
		pl[c] = server.Placement{Socket: c / cfg.CoresPerSocket, Core: c % cfg.CoresPerSocket}
	}
	for i := 0; i < nodes; i++ {
		s := f.Node(i)
		s.MustSubmit("serve", ws, pl, 1e9)
		s.SetMode(firmware.Undervolt)
	}
	tr := traffic.New(traffic.Config{
		Nodes:       nodes,
		RatePerSec:  90, // ~75% of a static node's ~48 GIPS at 0.4 GInst/query
		DemandGInst: 0.4,
		QueueCap:    256,
		Seed:        1,
	})
	caps := make([]float64, nodes)
	f.Advance(0.5) // settle into the multi-rate steady state (seals engines)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := range caps {
			caps[n] = math.Max(1, math.Round(f.NodeMIPS(n)/1000))
		}
		tr.Epoch(f.Pool(), epochSec, caps)
		f.Advance(epochSec)
	}
	b.StopTimer()
	b.ReportMetric(epochSec, "sim_s/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*epochSec*float64(nodes)), "ns/sim_s_node")
}

func BenchmarkFleetAdvance256(b *testing.B)  { benchFleetAdvance(b, 256, false) }
func BenchmarkFleetAdvance1024(b *testing.B) { benchFleetAdvance(b, 1024, false) }
func BenchmarkFleetAdvance4096(b *testing.B) { benchFleetAdvance(b, 4096, false) }

// BenchmarkFleetAdvance256Timeseries is the 256-node fleet advance with
// the telemetry plane recording (CompactSpec series on every chip plus
// attribution events); held against BenchmarkFleetAdvance256 it prices
// the plane at fleet scale.
func BenchmarkFleetAdvance256Timeseries(b *testing.B) { benchFleetAdvance(b, 256, true) }

// BenchmarkWebsearchQoS runs the registered websearch-qos experiment on
// the batched fleet lane: the full policy x load grid with open-loop
// traffic, the PR's serving headline. One untimed warm-up fills the arenas
// so the timed iterations measure the pooled steady state.
func BenchmarkWebsearchQoS(b *testing.B) {
	o := benchOptions()
	o.Workers = 4
	o.Batched = true
	experiments.WebsearchQoS(o)
	b.ResetTimer()
	var r experiments.WebsearchQoSResult
	for i := 0; i < b.N; i++ {
		r = experiments.WebsearchQoS(o)
	}
	b.ReportMetric(r.EnergySavingPct, "ags_energy_saving_%")
	b.ReportMetric(r.P99StaticSec*1000, "p99_static_ms")
	b.ReportMetric(r.P99BoostSec*1000, "p99_boost_ms")
	b.ReportMetric(experiments.WebsearchQoSSimSeconds(o), "sim_s/op")
}

// Batched sweep lanes: the full datacenter driver with Options.Batched —
// every cluster point rides the SoA engine and the naive fleet advances on
// the worker pool — at the default 4-node fleet, plane and mesh.
func benchBatchSweep(b *testing.B, mesh bool) {
	o := benchOptions()
	o.Batched = true
	o.Mesh = mesh
	var r experiments.DatacenterResult
	for i := 0; i < b.N; i++ {
		r = experiments.DatacenterSweep(o)
	}
	b.ReportMetric(r.SavingAtHalfLoad, "ags_vs_naive_%")
	b.ReportMetric(experiments.DatacenterSimSeconds(o), "sim_s/op")
}

func BenchmarkBatchSweep(b *testing.B)     { benchBatchSweep(b, false) }
func BenchmarkBatchSweepMesh(b *testing.B) { benchBatchSweep(b, true) }

// newBenchBatch lifts n settled BenchmarkChipStep-style chips into one
// chip.Batch; per-op cost of stepping it is directly comparable to n runs
// of the scalar BenchmarkChipStep loop.
func newBenchBatch(b *testing.B, n int, mesh bool, rec *obs.Recorder) *chip.Batch {
	b.Helper()
	chips := make([]*chip.Chip, n)
	d := workload.MustGet("raytrace")
	for k := range chips {
		cfg := chip.DefaultConfig("bench", uint64(k+1))
		if mesh {
			cfg = cfg.WithMesh()
		}
		cfg.Recorder = rec.Shard(fmt.Sprintf("chip%02d", k))
		c := chip.MustNew(cfg)
		for i := 0; i < 8; i++ {
			c.Place(i, workload.NewThread(d, 1e12, nil))
		}
		c.SetMode(firmware.Undervolt)
		c.Settle(1)
		chips[k] = c
	}
	bt, err := chip.NewBatch(chips)
	if err != nil {
		b.Fatal(err)
	}
	return bt
}

// BenchmarkBatchStep is the batched counterpart of BenchmarkChipStep: one
// op advances 8 chips through the flat SoA passes, so ns/op divided by 8
// is the per-chip cost to hold against the scalar loop.
func BenchmarkBatchStep(b *testing.B) {
	bt := newBenchBatch(b, 8, false, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Step(chip.DefaultStepSec)
	}
	b.ReportMetric(8, "chips/op")
}

// BenchmarkBatchStepMesh is BenchmarkBatchStep on the mesh-fidelity lane.
func BenchmarkBatchStepMesh(b *testing.B) {
	bt := newBenchBatch(b, 8, true, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Step(chip.DefaultStepSec)
	}
	b.ReportMetric(8, "chips/op")
}

// BenchmarkBatchStepRecorded is BenchmarkBatchStep with the flight
// recorder attached to every chip; the batched inner loop inherits the
// scalar lane's zero-allocation contract (TestBatchStepRecordedZeroAlloc).
func BenchmarkBatchStepRecorded(b *testing.B) {
	rec := obs.New("bench", obs.DefaultEventCap)
	bt := newBenchBatch(b, 8, false, rec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Step(chip.DefaultStepSec)
	}
	b.ReportMetric(8, "chips/op")
}

// TestBatchStepRecordedZeroAlloc extends TestChipStepRecordedZeroAlloc to
// the batched lane: stepping a gathered batch with the recorder attached
// must not allocate — the SoA arrays and per-chip scratch windows are all
// preallocated at NewBatch.
func TestBatchStepRecordedZeroAlloc(t *testing.T) {
	rec := obs.New("alloc", obs.DefaultEventCap)
	chips := make([]*chip.Chip, 4)
	d := workload.MustGet("raytrace")
	for k := range chips {
		cfg := chip.DefaultConfig("alloc", uint64(k+1))
		cfg.Recorder = rec.Shard(fmt.Sprintf("chip%02d", k))
		c := chip.MustNew(cfg)
		for i := 0; i < 8; i++ {
			c.Place(i, workload.NewThread(d, 1e12, nil))
		}
		c.SetMode(firmware.Undervolt)
		c.Settle(1)
		chips[k] = c
	}
	bt, err := chip.NewBatch(chips)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(2000, func() {
		bt.Step(chip.DefaultStepSec)
	}); got != 0 {
		t.Errorf("instrumented batch step allocates %v allocs/op, want 0", got)
	}
}

// Sampled-lane pairs: the same long-horizon driver on the macro lane vs
// under the sampling governor (Options.Sampled, the -sampled flag). Long
// measurement spans are where sampling pays: the macro lane stays
// tick-bound at ~32 ms leaps while a converged governor extrapolates
// multi-second spans. scripts/bench_compare.sh derives
// sampled_speedup_vs_macro from each pair and gates it with
// SAMPLED_SPEEDUP_MIN, plus the sampled_err_rel metric (each sampled
// bench's headline vs its own untimed macro reference) with
// SAMPLED_ERR_MAX. Accuracy against -exact is pinned per experiment by
// internal/experiments/sampled_test.go.

// longHorizonOptions stretches the measurement span to where long-horizon
// sweeps live: reduced (Quick) sweep subsets, two minutes of simulated
// steady state per point and full-size run-to-completion footprints.
// Settling stays detailed in both lanes, so the pair isolates what the
// governor buys on the measured span: the macro lane pays ~32 ms
// tick-bound leaps across the whole two minutes while the governor pays a
// few detailed windows plus capped-ratio fast-forwards.
func longHorizonOptions() experiments.Options {
	o := experiments.QuickOptions()
	o.MeasureSec = 120
	o.WorkScale = 1
	return o
}

// The chip-level pair runs Fig05's workload-heterogeneity sweep: a pure
// steady-state driver whose every point measures MeasureSec of settled
// operation, so the horizon stretch lands entirely on the governed span.
func BenchmarkSweepLongHorizon(b *testing.B) {
	o := longHorizonOptions()
	o.Workers = 1
	var r experiments.Fig05Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig05Heterogeneity(o)
	}
	b.ReportMetric(r.AvgPowerAt1, "avg@1core_%")
}

func BenchmarkSweepSampled(b *testing.B) {
	o := longHorizonOptions()
	o.Workers = 1
	ref := experiments.Fig05Heterogeneity(o) // untimed macro reference
	o.Sampled = true
	b.ResetTimer()
	var r experiments.Fig05Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig05Heterogeneity(o)
	}
	b.ReportMetric(r.AvgPowerAt1, "avg@1core_%")
	b.ReportMetric(relErr(r.AvgPowerAt1, ref.AvgPowerAt1), "sampled_err_rel")
}

func BenchmarkDatacenterSweepLongHorizon(b *testing.B) {
	o := longHorizonOptions()
	o.Workers = 1
	var r experiments.DatacenterResult
	for i := 0; i < b.N; i++ {
		r = experiments.DatacenterSweep(o)
	}
	b.ReportMetric(r.SavingAtHalfLoad, "ags_vs_naive_%")
	b.ReportMetric(experiments.DatacenterSimSeconds(o), "sim_s/op")
}

func BenchmarkDatacenterSweepSampled(b *testing.B) {
	o := longHorizonOptions()
	o.Workers = 1
	ref := experiments.DatacenterSweep(o) // untimed macro reference
	o.Sampled = true
	b.ResetTimer()
	var r experiments.DatacenterResult
	for i := 0; i < b.N; i++ {
		r = experiments.DatacenterSweep(o)
	}
	b.ReportMetric(r.SavingAtHalfLoad, "ags_vs_naive_%")
	b.ReportMetric(experiments.DatacenterSimSeconds(o), "sim_s/op")
	b.ReportMetric(relErr(r.SavingAtHalfLoad, ref.SavingAtHalfLoad), "sampled_err_rel")
}

// relErr returns |got-ref| / max(|ref|, 1): relative error with an
// absolute floor so near-zero references do not explode the ratio.
func relErr(got, ref float64) float64 {
	return math.Abs(got-ref) / math.Max(math.Abs(ref), 1)
}

// TestSampledRunRecordedZeroAlloc pins the sampled lane's inner-loop
// allocation contract with the flight recorder attached: once the
// governor's signature buffers are sized and it has converged, alternating
// detailed windows with fast-forwards (mode-switch events, fast-forward
// counters and histograms included) must not allocate.
func TestSampledRunRecordedZeroAlloc(t *testing.T) {
	rec := obs.New("alloc", obs.DefaultEventCap)
	cfg := chip.DefaultConfig("alloc", 1)
	cfg.Recorder = rec.Shard("chip")
	c := chip.MustNew(cfg)
	d := workload.MustGet("raytrace")
	for i := 0; i < 8; i++ {
		c.Place(i, workload.NewThread(d, 1e12, nil))
	}
	c.SetMode(firmware.Undervolt)
	c.Settle(1)
	g := sample.New(c, sample.Config{Stats: &sample.RunStats{}})
	g.Run(2, nil) // warm up: size buffers, converge, reach the leap cap
	if g.FastSec() == 0 {
		t.Fatal("warm-up span never fast-forwarded; the steady-state loop is not being exercised")
	}
	if got := testing.AllocsPerRun(100, func() {
		g.Run(0.5, nil)
	}); got != 0 {
		t.Errorf("sampled run with recorder allocates %v allocs/op, want 0", got)
	}
}

// Ablation benches: the design-choice sweeps DESIGN.md calls out.

func BenchmarkAblationLoadReserve(b *testing.B) {
	o := benchOptions()
	var r experiments.AblationLoadReserveResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationLoadReserve(o)
	}
	if row, ok := r.Table.Row("k=1.08"); ok {
		b.ReportMetric(row.Values[2], "llb_imp@8_%")
	}
}

func BenchmarkAblationDPLLAuthority(b *testing.B) {
	o := benchOptions()
	var r experiments.AblationDPLLAuthorityResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationDPLLAuthority(o)
	}
	b.ReportMetric(float64(r.ViolationsWithoutSlew), "violations_no_slew")
	b.ReportMetric(float64(r.ViolationsWithSlew), "violations_full_slew")
}

func BenchmarkAblationCPMVariation(b *testing.B) {
	o := benchOptions()
	var r experiments.AblationCPMVariationResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationCPMVariation(o)
	}
	b.ReportMetric(r.UndervoltTight-r.UndervoltWide, "uv_cost_of_spread_mV")
}

func BenchmarkAblationContention(b *testing.B) {
	o := benchOptions()
	var r experiments.AblationContentionResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationContention(o)
	}
	if row, ok := r.Table.Row("exp=1.4"); ok {
		b.ReportMetric(row.Values[0], "radix_split_speedup_x")
	}
}

func BenchmarkDatacenterSweep(b *testing.B) {
	o := benchOptions()
	var r experiments.DatacenterResult
	for i := 0; i < b.N; i++ {
		r = experiments.DatacenterSweep(o)
	}
	b.ReportMetric(r.SavingAtHalfLoad, "ags_vs_naive_%")
	b.ReportMetric(experiments.DatacenterSimSeconds(o), "sim_s/op")
}

func BenchmarkExtDVFSComparison(b *testing.B) {
	o := benchOptions()
	var r experiments.DVFSResult
	for i := 0; i < b.N; i++ {
		r = experiments.DVFSComparison(o)
	}
	b.ReportMetric(r.AdaptiveSavingVsNominalPct, "adaptive_vs_pstate_%")
}

func BenchmarkExtAgingSweep(b *testing.B) {
	o := benchOptions()
	var r experiments.AgingResult
	for i := 0; i < b.N; i++ {
		r = experiments.AgingSweep(o)
	}
	b.ReportMetric(r.StaticFailureOnsetMV, "static_failure_onset_mV")
	b.ReportMetric(float64(r.AdaptiveViolations), "adaptive_violations")
}

func BenchmarkExtSMTScaling(b *testing.B) {
	o := benchOptions()
	var r experiments.SMTResult
	for i := 0; i < b.N; i++ {
		r = experiments.SMTScaling(o)
	}
	b.ReportMetric(r.ThroughputGainSMT4, "smt4_throughput_gain_%")
	b.ReportMetric(r.EfficiencyGainSMT4, "smt4_mips_per_w_gain_%")
}

func BenchmarkExtDatacenterTrace(b *testing.B) {
	var stats cluster.PlayerStats
	for i := 0; i < b.N; i++ {
		c := cluster.MustNew(2, cluster.DefaultNodeConfig(33))
		c.SetMode(firmware.Undervolt)
		p, err := cluster.NewPlayer(c, cluster.TraceConfig{
			ArrivalPerSec: 1,
			Mix: []cluster.MixEntry{
				{Bench: "coremark", Threads: 2, Weight: 2, WorkGInst: 10},
				{Bench: "raytrace", Threads: 4, Weight: 1, WorkGInst: 20},
			},
			Seed: 33,
		})
		if err != nil {
			b.Fatal(err)
		}
		stats = p.Run(10)
	}
	b.ReportMetric(stats.AvgPowerW, "avg_cluster_w")
	b.ReportMetric(stats.AvgPoweredNodes, "avg_powered_nodes")
}

func BenchmarkExtDroopCensus(b *testing.B) {
	o := benchOptions()
	var r experiments.DroopCensusResult
	for i := 0; i < b.N; i++ {
		r = experiments.DroopCensus(o)
	}
	b.ReportMetric(r.RateAt8, "droops_per_sec@8")
	b.ReportMetric(r.DepthGrowth, "depth_growth_x")
}
