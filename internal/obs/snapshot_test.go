package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"agsim/internal/tsdb"
)

// referenceEvents is the event log Snapshot used to build: every ring
// concatenated in collect order (parent before children, children sorted
// by name, each ring oldest first), Sources re-indexed into the merged
// source list, then one stable sort by TimeUS. Snapshot's merge must
// reproduce it exactly.
func referenceEvents(root *Recorder) []Event {
	var evs []Event
	var nsrc int32
	var walk func(r *Recorder)
	walk = func(r *Recorder) {
		base := nsrc
		nsrc += int32(len(r.sources))
		ring := r.events
		if r.lost > 0 {
			ring = append(slices.Clone(r.events[r.next:]), r.events[:r.next]...)
		}
		for _, ev := range ring {
			if ev.Source >= 0 {
				ev.Source += base
			}
			evs = append(evs, ev)
		}
		children := slices.Clone(r.children)
		sort.Slice(children, func(i, j int) bool { return children[i].name < children[j].name })
		for _, c := range children {
			walk(c)
		}
	}
	walk(root)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TimeUS < evs[j].TimeUS })
	return evs
}

// checkEventOrder fails t when Snapshot's events differ from the
// reference concatenate-then-stable-sort order.
func checkEventOrder(t *testing.T, r *Recorder) {
	t.Helper()
	got := r.Snapshot().Events
	want := referenceEvents(r)
	if !reflect.DeepEqual(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("event %d of %d: got %+v, want %+v", i, len(want), got[i], want[i])
			}
		}
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
}

// emitN emits n events into r from source src, stamped by stamp(i); C
// carries a serial so equal-time events stay distinguishable.
func emitN(r *Recorder, src int32, n int, stamp func(i int) int64) {
	for i := 0; i < n; i++ {
		r.Emit(Event{TimeUS: stamp(i), Kind: KindDroop, Source: src, Core: -1, C: int64(i)})
	}
}

func TestSnapshotEventOrderMatchesStableSort(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Recorder
	}{
		{"empty", func() *Recorder { return New("root", 8) }},
		{"root-only-wrapped", func() *Recorder {
			r := New("root", 8)
			emitN(r, r.Source("chip"), 13, func(i int) int64 { return int64(i) })
			return r
		}},
		{"nested-unsorted-creation", func() *Recorder {
			r := New("root", 16)
			emitN(r, r.Source("root-chip"), 5, func(i int) int64 { return int64(3 * i) })
			for _, name := range []string{"zeta", "alpha", "mid"} {
				sh := r.Shard(name)
				emitN(sh, sh.Source("chip"), 9, func(i int) int64 { return int64(2*i + len(name)) })
				for _, sub := range []string{"y", "b", "x"} {
					ss := sh.Shard(sub)
					ss.Source("pad") // shifts the re-index base
					emitN(ss, ss.Source("chip"), 7, func(i int) int64 { return int64(5*i - len(sub)) })
				}
			}
			return r
		}},
		{"wrapped-unwrapped-empty", func() *Recorder {
			r := New("root", 8)
			full := r.Shard("full")
			emitN(full, full.Source("c"), 8, func(i int) int64 { return int64(i) })
			wrapped := r.Shard("wrapped")
			emitN(wrapped, wrapped.Source("c"), 21, func(i int) int64 { return int64(i / 2) })
			part := r.Shard("part")
			emitN(part, part.Source("c"), 3, func(i int) int64 { return int64(10 - i) })
			r.Shard("empty").Source("c")
			return r
		}},
		{"wrap-point-inverted", func() *Recorder {
			// Both sides of the wrap are in order, but the newest records
			// are stamped before the oldest survivors: 12,13 | 5,6.
			r := New("root", 4)
			a := r.Shard("a")
			emitN(a, a.Source("c"), 6, func(i int) int64 { return []int64{10, 11, 12, 13, 5, 6}[i] })
			b := r.Shard("b")
			emitN(b, b.Source("c"), 6, func(i int) int64 { return int64(4 + 2*i) })
			return r
		}},
		{"stamped-ahead", func() *Recorder {
			r := New("root", 32)
			for s := 0; s < 3; s++ {
				sh := r.Shard(fmt.Sprintf("node%d", s))
				src := sh.Source("chip")
				// Every third record is stamped at the end of a span (as
				// KindLeap stamps the leap's end) ahead of its successors;
				// 50 records wrap the 32-slot ring mid-sequence.
				emitN(sh, src, 50, func(i int) int64 {
					if i%3 == 0 {
						return int64(10*i + 25)
					}
					return int64(10 * i)
				})
			}
			return r
		}},
		{"equal-stamps-across-shards", func() *Recorder {
			r := New("root", 64)
			emitN(r, -1, 20, func(i int) int64 { return int64(i / 5) })
			for _, name := range []string{"d", "a", "c", "b"} {
				sh := r.Shard(name)
				emitN(sh, sh.Source("chip"), 40, func(i int) int64 { return int64(i / 10) })
				emitN(sh, -1, 40, func(i int) int64 { return 4 + int64(i/10) })
			}
			return r
		}},
		{"random-forest", func() *Recorder { return randomForest(rand.New(rand.NewSource(7)), 12, 24) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkEventOrder(t, tc.build()) })
	}
}

// randomForest builds a recorder tree of up to shards nested shards with
// ring capacity 1..capMax, filled with random — partly out-of-order,
// heavily tied — stamps.
func randomForest(rnd *rand.Rand, shards, capMax int) *Recorder {
	r := New("root", 1+rnd.Intn(capMax))
	recs := []*Recorder{r}
	for i := 0; i < shards; i++ {
		parent := recs[rnd.Intn(len(recs))]
		recs = append(recs, parent.Shard(fmt.Sprintf("s%02d", rnd.Intn(100)*100+i)))
	}
	for _, rec := range recs {
		src := rec.Source("chip")
		var tnow int64
		for n := rnd.Intn(3 * capMax); n > 0; n-- {
			tnow += int64(rnd.Intn(4)) - 1
			s := src
			if rnd.Intn(4) == 0 {
				s = -1
			}
			rec.Emit(Event{TimeUS: tnow, Kind: KindWindow, Source: s, C: int64(n)})
		}
	}
	return r
}

// FuzzSnapshotEventOrder drives the merge-vs-stable-sort comparison from
// fuzzed stamps, ring sizes and shard counts: each data byte emits one
// event into a shard it selects, moving that shard's clock by -2..+13 µs.
func FuzzSnapshotEventOrder(f *testing.F) {
	f.Add([]byte{0, 16, 32, 48, 1, 17, 33}, uint8(4), uint8(2))
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}, uint8(3), uint8(0))
	f.Add([]byte{0x05, 0x14, 0x23, 0x32, 0x41, 0x50, 0x05, 0x14, 0x23, 0x32, 0x41, 0x50}, uint8(2), uint8(5))
	f.Add([]byte{0xf1, 0x02, 0x13, 0x24, 0xf1, 0x02, 0x13, 0x24}, uint8(0), uint8(3))
	// A 4-slot ring whose sides are each in order but inverted across
	// the wrap point: 3,4 | 2,3.
	f.Add([]byte{0x30, 0x30, 0x30, 0x30, 0x00, 0x30}, uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, ringCap, shards uint8) {
		r := New("root", 1+int(ringCap%32))
		recs := []*Recorder{r}
		for i := 0; i < int(shards%8); i++ {
			// Nest shards under earlier ones and name them in reverse,
			// so creation order differs from collect order.
			parent := recs[(i*5)%len(recs)]
			recs = append(recs, parent.Shard(fmt.Sprintf("n%02d", 20-i)))
		}
		srcs := make([]int32, len(recs))
		clock := make([]int64, len(recs))
		for i, rec := range recs {
			srcs[i] = rec.Source("chip")
		}
		for i, b := range data {
			k := int(b&0x0f) % len(recs)
			clock[k] += int64(b>>4) - 2
			src := srcs[k]
			if b&0x0f >= 12 {
				src = -1
			}
			recs[k].Emit(Event{TimeUS: clock[k], Kind: KindDroop, Source: src, C: int64(i)})
		}
		checkEventOrder(t, r)
	})
}

// fullRings builds the observe-workload shape: a root with eight node
// shards, each with a series and a DefaultEventCap ring wrapped once.
func fullRings() *Recorder {
	r := New("fleet", DefaultEventCap)
	r.EnableTimeSeries(tsdb.DefaultSpec())
	for s := 0; s < 8; s++ {
		sh := r.Shard(fmt.Sprintf("node%d", s))
		src := sh.Source("chip")
		ts := sh.Series(src, "power_w")
		for i := 0; i < DefaultEventCap+DefaultEventCap/2; i++ {
			tus := int64(i)*1000 + int64(s%3)
			sh.Emit(Event{TimeUS: tus, Kind: KindWindow, Source: src, Core: -1, C: int64(i)})
			if i%32 == 0 {
				ts.Push(tus, float64(i%100))
			}
		}
	}
	return r
}

func TestSnapshotAllocatesEventsOnce(t *testing.T) {
	r := fullRings()
	lg := r.Snapshot()
	if want := 8 * DefaultEventCap; len(lg.Events) != want {
		t.Fatalf("retained %d events, want %d", len(lg.Events), want)
	}
	var seriesBytes uintptr
	for _, d := range lg.Series {
		for _, lv := range d.Levels {
			seriesBytes += uintptr(cap(lv)) * unsafe.Sizeof(tsdb.Window{})
		}
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		lg = r.Snapshot()
	}
	runtime.ReadMemStats(&after)
	perSnap := float64(after.TotalAlloc-before.TotalAlloc) / runs
	bound := 1.25*float64(uintptr(len(lg.Events))*unsafe.Sizeof(Event{})) + float64(seriesBytes)
	if perSnap >= bound {
		t.Errorf("Snapshot allocates %.0f B, want < %.0f B (1.25 x %d events + %d B series windows)",
			perSnap, bound, len(lg.Events), seriesBytes)
	}
}
