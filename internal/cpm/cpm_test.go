package cpm

import (
	"math"
	"testing"

	"agsim/internal/rng"
	"agsim/internal/units"
	"agsim/internal/vf"
)

func quietSensor(t *testing.T, seed uint64) *Sensor {
	t.Helper()
	cfg := DefaultConfig(vf.Default())
	cfg.NoiseMV = 0
	cfg.PathOffsetSpreadMV = 0
	cfg.MVPerBitSpread = 0
	return New(cfg, rng.New(seed, "cpm-test"))
}

func TestValueMonotoneInVoltage(t *testing.T) {
	s := quietSensor(t, 1)
	prev := -1
	for v := units.Millivolt(950); v <= 1280; v += 5 {
		got := s.Value(v, 4200)
		if got < prev {
			t.Fatalf("CPM value decreased with voltage at %v: %d < %d", v, got, prev)
		}
		prev = got
	}
}

func TestValueAntiMonotoneInFrequency(t *testing.T) {
	s := quietSensor(t, 2)
	prev := MaxValue + 1
	for f := units.Megahertz(2800); f <= 4620; f += 28 {
		got := s.Value(1200, f)
		if got > prev {
			t.Fatalf("CPM value increased with frequency at %v: %d > %d", f, got, prev)
		}
		prev = got
	}
}

func TestValueRange(t *testing.T) {
	s := quietSensor(t, 3)
	if got := s.Value(600, 4620); got != 0 {
		t.Errorf("starved sensor = %d, want 0", got)
	}
	if got := s.Value(2000, 2800); got != MaxValue {
		t.Errorf("flooded sensor = %d, want %d", got, MaxValue)
	}
}

func TestCalibrationTargetAtResidualMargin(t *testing.T) {
	// When the core sits exactly at V_req + residual, the sensor must read
	// its calibration target: that is what "calibrated" means.
	law := vf.Default()
	s := quietSensor(t, 4)
	v := law.VReq(4200) + law.ResidualMV
	if got := s.Value(v, 4200); got != CalibTarget {
		t.Errorf("calibrated point reads %d, want %d", got, CalibTarget)
	}
}

func TestSensitivityScalesWithFrequency(t *testing.T) {
	s := quietSensor(t, 5)
	atPeak := s.MVPerBit(4200)
	if math.Abs(atPeak-21) > 0.01 {
		t.Errorf("peak sensitivity = %v, want ~21 mV/bit (Fig. 6a)", atPeak)
	}
	atLow := s.MVPerBit(3600)
	if atLow >= atPeak {
		t.Errorf("sensitivity should shrink at lower frequency: %v vs %v", atLow, atPeak)
	}
	if s.MVPerBit(100) < 5 {
		t.Error("sensitivity floor violated")
	}
}

func TestPopulationSpread(t *testing.T) {
	// Fig. 6b: per-sensor sensitivity varies (10-30 mV/bit band). Build a
	// population and check spread without exceeding the band.
	cfg := DefaultConfig(vf.Default())
	r := rng.New(9, "population")
	minS, maxS := math.Inf(1), math.Inf(-1)
	for i := 0; i < 200; i++ {
		s := New(cfg, r.Split(string(rune('a'+i%26))+"x"))
		v := s.MVPerBit(4200)
		minS = math.Min(minS, v)
		maxS = math.Max(maxS, v)
	}
	if maxS-minS < 3 {
		t.Errorf("population spread too tight: [%v, %v]", minS, maxS)
	}
	if minS < 10 || maxS > 30 {
		t.Errorf("population outside Fig. 6b band: [%v, %v]", minS, maxS)
	}
}

func TestVoltageFromValueInvertsMapping(t *testing.T) {
	// §4.1 methodology: CPM output converts back to on-chip voltage within
	// quantization error (±half a bit plus read noise).
	cfg := DefaultConfig(vf.Default())
	cfg.NoiseMV = 0
	s := New(cfg, rng.New(11, "invert"))
	for _, v := range []units.Millivolt{1050, 1100, 1150, 1200} {
		val := s.Value(v, 4200)
		if val == 0 || val == MaxValue {
			continue // saturated, not invertible
		}
		est := s.VoltageFromValue(val, 4200)
		if math.Abs(float64(est-v)) > s.MVPerBit(4200)/2+1e-9 {
			t.Errorf("inversion at %v: estimated %v (err > half bit)", v, est)
		}
	}
}

func TestStickyTracksMinimum(t *testing.T) {
	s := quietSensor(t, 12)
	if _, ok := s.Sticky(); ok {
		t.Fatal("fresh sensor should have no sticky observation")
	}
	s.Value(1250, 4200) // high margin
	s.Value(1100, 4200) // droop
	s.Value(1250, 4200) // recovered
	min, ok := s.Sticky()
	if !ok {
		t.Fatal("sticky missing")
	}
	direct := quietSensor(t, 12).Value(1100, 4200)
	if min != direct {
		t.Errorf("sticky = %d, want the droop reading %d", min, direct)
	}
	s.StickyReset()
	if _, ok := s.Sticky(); ok {
		t.Error("sticky not cleared")
	}
}

func TestDeadSensorReadsWorstCase(t *testing.T) {
	s := quietSensor(t, 13)
	s.Kill()
	if !s.Dead() {
		t.Fatal("Dead() false after Kill")
	}
	if got := s.Value(1250, 4200); got != 0 {
		t.Errorf("dead sensor read %d, want 0", got)
	}
	if min, ok := s.Sticky(); !ok || min != 0 {
		t.Errorf("dead sensor sticky = %d, %v", min, ok)
	}
}

func TestReadNoiseBounded(t *testing.T) {
	cfg := DefaultConfig(vf.Default())
	s := New(cfg, rng.New(14, "noise"))
	v := units.Millivolt(1200)
	counts := map[int]int{}
	for i := 0; i < 2000; i++ {
		counts[s.Value(v, 4200)]++
	}
	if len(counts) < 1 || len(counts) > 4 {
		t.Errorf("read noise produced %d distinct values, want a narrow band", len(counts))
	}
}

func TestNewPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for nil rng")
			}
		}()
		New(DefaultConfig(vf.Default()), nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for bad sensitivity")
			}
		}()
		cfg := DefaultConfig(vf.Default())
		cfg.MeanMVPerBit = 0
		New(cfg, rng.New(1, "x"))
	}()
}

// refValue is Value's arithmetic as a single expression chain, with the
// 5 mV/bit floor through math.Max: the form the hoisted read replaced.
func refValue(law vf.Law, dead bool, mvPerBitNom, pathOffsetMV, noiseOffsetMV float64, v units.Millivolt, f units.Megahertz) int {
	if dead {
		return 0
	}
	marginMV := float64(law.MarginMV(v, f)) - float64(law.ResidualMV) + pathOffsetMV
	marginMV += noiseOffsetMV
	mvPerBit := math.Max(mvPerBitNom*(float64(f)/float64(law.FNom)), 5)
	raw := CalibTarget + int(math.Round(marginMV/mvPerBit))
	if raw < 0 {
		raw = 0
	}
	if raw > MaxValue {
		raw = MaxValue
	}
	return raw
}

// TestReadAtMatchesValue pins the hoisted read (ReadFor once per (v, f),
// then ReadAt or RawAt per sensor) to Value bit for bit, and both to the
// pre-hoisting arithmetic, over a (v, f) grid that reaches the 5 mV/bit
// floor and both clamps, on live and dead sensors, with the sticky latches
// of twin sensors compared after every read.
func TestReadAtMatchesValue(t *testing.T) {
	cfg := DefaultConfig(vf.Default())
	law := cfg.Law // a separate copy, as the chip hoists its own config's law
	var floor, clampLo, clampHi, mid int
	for seed := uint64(1); seed <= 4; seed++ {
		byValue := New(cfg, rng.New(seed, "cpm-read"))
		byRead := New(cfg, rng.New(seed, "cpm-read"))
		for pass, dead := range []bool{false, true} {
			if dead {
				byValue.Kill()
				byRead.Kill()
			}
			reads := 0
			for f := units.Megahertz(100); f <= 4620; f += 151 {
				for v := units.Millivolt(500); v <= 2100; v += 7 {
					nom, poff, noff, _, _, _ := byRead.BatchState()
					if nom*float64(f)/float64(law.FNom) < 5 {
						floor++
					}
					want := refValue(law, dead, nom, poff, noff, v, f)
					rd := ReadFor(&law, v, f)
					gotRaw := RawAt(rd, dead, poff, noff, nom)
					gotRead := byRead.ReadAt(rd)
					gotValue := byValue.Value(v, f)
					if gotValue != want || gotRead != want || gotRaw != want {
						t.Fatalf("seed %d pass %d v=%v f=%v: Value %d, ReadAt %d, RawAt %d, reference %d",
							seed, pass, v, f, gotValue, gotRead, gotRaw, want)
					}
					switch want {
					case 0:
						clampLo++
					case MaxValue:
						clampHi++
					default:
						mid++
					}
					sv, okv := byValue.Sticky()
					sr, okr := byRead.Sticky()
					if sv != sr || okv != okr {
						t.Fatalf("seed %d v=%v f=%v: sticky (%d,%v) via Value, (%d,%v) via ReadAt", seed, v, f, sv, okv, sr, okr)
					}
					// Close a window every so often: both twins redraw the
					// same held noise from their own streams.
					if reads++; reads%97 == 0 {
						byValue.StickyReset()
						byRead.StickyReset()
					}
				}
			}
		}
	}
	if floor == 0 || clampLo == 0 || clampHi == 0 || mid == 0 {
		t.Fatalf("grid misses a regime: floor %d, clamp-0 %d, clamp-%d %d, in-range %d", floor, clampLo, MaxValue, clampHi, mid)
	}
}

// TestMVPerBitFloorMatchesMax pins the compare-based floor to math.Max
// bit for bit, including NaN, the signed zeros and the infinities.
func TestMVPerBitFloorMatchesMax(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1),
		-7, 4.999999999, 5, math.Nextafter(5, 6), 21, 1e300} {
		got := MVPerBitAt(x, 1)
		want := math.Max(x, 5)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("MVPerBitAt(%v, 1) = %v (%#x), math.Max gives %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}
