package snapshot_test

import (
	"encoding/binary"
	"math"
	"testing"

	"agsim/internal/snapshot"
)

// int64s is the smallest image with a length prefix in it.
type int64s struct{ V []int64 }

// lengths carries one of each length-prefixed kind the decoder allocates
// for: a slice, a map, and a slice of zero-size elements.
type lengths struct {
	V []int64
	M map[string]int64
	Z []struct{}
}

func uvarint(v uint64) []byte { return binary.AppendUvarint(nil, v) }

// TestLoadRejectsCraftedLengths feeds Load length prefixes no writer
// produces, each under a correct CRC. An unchecked slice length of 1<<40
// int64s is an 8 TiB allocation that kills the process; every case must
// come back as an error instead.
func TestLoadRejectsCraftedLengths(t *testing.T) {
	img, err := snapshot.Save(&lengths{}, snapshot.Meta{})
	if err != nil {
		t.Fatal(err)
	}
	// A zero lengths encodes as the root pointer's marker byte followed
	// by three nil length prefixes.
	zero, err := snapshot.Payload(img)
	if err != nil || len(zero) != 4 {
		t.Fatalf("zero-value payload %v (%v), want a marker and three nil prefixes", zero, err)
	}
	root := zero[:1]
	craft := func(payload []byte) []byte {
		framed, err := snapshot.Reframe(img, payload)
		if err != nil {
			t.Fatal(err)
		}
		return framed
	}
	cat := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	nilSeq := uvarint(0)
	cases := map[string][]byte{
		"slice 1<<40":        cat(root, uvarint(1<<40+1), uvarint(7)),
		"slice past payload": cat(root, uvarint(4), uvarint(1), uvarint(2)),
		"slice m-1 overflow": cat(root, uvarint(math.MaxUint64)),
		"slice m-1 = MaxInt": cat(root, uvarint(math.MaxInt+1)),
		"map 1<<40":          cat(root, nilSeq, uvarint(1<<40+1)),
		"map m-1 overflow":   cat(root, nilSeq, uvarint(math.MaxUint64)),
		"zero-size overflow": cat(root, nilSeq, nilSeq, uvarint(math.MaxUint64)),
	}
	for name, payload := range cases {
		if _, err := snapshot.Load(craft(payload), &lengths{}); err == nil {
			t.Errorf("%s: crafted length accepted", name)
		}
	}

	// Zero-size elements cost nothing, so any count that fits in an int
	// is a valid image and loads at once.
	var got lengths
	if _, err := snapshot.Load(craft(cat(root, nilSeq, nilSeq, uvarint(1<<40+1))), &got); err != nil {
		t.Fatalf("zero-size slice of 1<<40: %v", err)
	}
	if len(got.Z) != 1<<40 {
		t.Fatalf("zero-size slice length %d, want %d", len(got.Z), 1<<40)
	}
}

// FuzzLoad hands Load arbitrary payloads under a valid header and CRC,
// into a settled chip and into a one-slice struct. Load may accept or
// reject a payload; it must never panic or exhaust memory.
func FuzzLoad(f *testing.F) {
	c := testChip(1, nil)
	c.Settle(0.1)
	chipImg, err := snapshot.Save(c, snapshot.Meta{Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	intsImg, err := snapshot.Save(&int64s{V: []int64{-1, 0, 1 << 40}}, snapshot.Meta{})
	if err != nil {
		f.Fatal(err)
	}
	imgs := [][]byte{chipImg, intsImg}
	target := func(i int) any {
		if i == 0 {
			return testChip(1, nil)
		}
		return &int64s{}
	}
	for i, img := range imgs {
		payload, err := snapshot.Payload(img)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := snapshot.Load(img, target(i)); err != nil {
			f.Fatalf("seed image %d does not load: %v", i, err)
		}
		f.Add(payload, uint8(i))
	}
	f.Fuzz(func(t *testing.T, payload []byte, which uint8) {
		i := int(which) % len(imgs)
		framed, err := snapshot.Reframe(imgs[i], payload)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = snapshot.Load(framed, target(i))
	})
}
