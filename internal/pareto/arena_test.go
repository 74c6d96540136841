package pareto

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"moqo/internal/objective"
	"moqo/internal/plan"
)

// closedImage is everything a reader of a closed archive can see, by value:
// entries and cost bits in storage order, counters, and the length and
// capacity of both slices.
type closedImage struct {
	entries          []plan.Entry
	bits             []uint64
	recLen, recCap   int
	costLen, costCap int
	ins, rej, ev     int
}

func imageOf(a *FlatArchive) closedImage {
	img := closedImage{recLen: len(a.recs), recCap: cap(a.recs), costLen: len(a.costs), costCap: cap(a.costs)}
	for _, r := range a.recs {
		img.entries = append(img.entries, r.entry())
	}
	for _, c := range a.costs {
		img.bits = append(img.bits, math.Float64bits(c))
	}
	img.ins, img.rej, img.ev = a.Stats()
	return img
}

// changed reports how a closed archive differs from its image at Close, or
// "" — and it must be closed: len == cap on both slices.
func (img closedImage) changed(a *FlatArchive) string {
	if len(a.recs) != cap(a.recs) || len(a.costs) != cap(a.costs) {
		return fmt.Sprintf("not closed: records len %d cap %d, costs len %d cap %d", len(a.recs), cap(a.recs), len(a.costs), cap(a.costs))
	}
	now := imageOf(a)
	switch {
	case now.recLen != img.recLen || now.recCap != img.recCap || now.costLen != img.costLen || now.costCap != img.costCap:
		return fmt.Sprintf("slices moved: %+v, at Close %+v", now, img)
	case !slices.Equal(now.entries, img.entries):
		return fmt.Sprintf("entries %v, at Close %v", now.entries, img.entries)
	case !slices.Equal(now.bits, img.bits):
		return "cost bits changed"
	case now.ins != img.ins || now.rej != img.rej || now.ev != img.ev:
		return "counters changed"
	}
	return ""
}

// antichain is row i of a stream no row of which dominates another, so
// every insert is stored and the archive grows by one row each time.
func antichain(i int) objective.Vector {
	var v objective.Vector
	v[objective.TotalTime] = float64(i)
	v[objective.BufferFootprint] = float64(1000 - i)
	v[objective.Energy] = float64(7 + i%3)
	return v
}

// TestArenaClosedArchiveStaysPut is the aliasing guard of the arena: an
// archive closed in an arena is never touched by the archive filled after
// it, not even when that one outgrows the chunk they share, and an archive
// that outgrew its chunk leaves the tail where it was.
func TestArenaClosedArchiveStaysPut(t *testing.T) {
	cfg := NewFlatConfig(benchObjs, 1)
	ar := &MakeArenas(1, 32)[0]
	var a, b, c FlatArchive
	ar.Open(&a, cfg)
	for i := 0; i < 10; i++ {
		if !a.Insert(antichain(i), plan.Entry{Op: int32(i)}) {
			t.Fatalf("row %d of the antichain was not stored", i)
		}
	}
	ar.Close(&a)
	img := imageOf(&a)
	if d := img.changed(&a); d != "" {
		t.Fatal(d)
	}
	if tail := len(ar.recs); tail != 10 || len(ar.costs) != 10*stride {
		t.Fatalf("after closing 10 rows in place the tail is at %d (%d costs), want 10", tail, len(ar.costs))
	}

	// b starts at the tail with the chunk's other 22 rows of room (no fewer
	// than the 10 closed last) and outgrows them.
	ar.Open(&b, cfg)
	if cap(b.recs) != 22 {
		t.Fatalf("b opened with room for %d rows, want the chunk's remaining 22", cap(b.recs))
	}
	for i := 0; i < 40; i++ {
		b.Insert(antichain(100+i), plan.Entry{Op: int32(100 + i)})
		if d := img.changed(&a); d != "" {
			t.Fatalf("after b's insert %d (%d rows): the closed archive %s", i, b.Len(), d)
		}
	}
	ar.Close(&b)
	if d := img.changed(&a); d != "" {
		t.Fatalf("after b closed: %s", d)
	}
	if len(ar.recs) != 10 || len(ar.costs) != 10*stride {
		t.Fatalf("b outgrew its chunk and moved the tail to %d, want it left at 10", len(ar.recs))
	}
	if len(b.recs) != 40 || cap(b.recs) != 40 {
		t.Fatalf("b closed with %d rows, capacity %d; want 40 and 40", len(b.recs), cap(b.recs))
	}

	// The next archive does not start in the room b outgrew: it takes a
	// fresh chunk, twice the first.
	ar.Open(&c, cfg)
	if cap(c.recs) != 64 || len(ar.recs) != 0 {
		t.Fatalf("after an overflow the next archive opened with room %d at tail %d, want a fresh chunk of 64", cap(c.recs), len(ar.recs))
	}
	c.Insert(antichain(0), plan.Entry{})
	ar.Close(&c)
	if d := img.changed(&a); d != "" {
		t.Fatalf("after c: %s", d)
	}
}

// TestArenaOneOpenArchive: Open refuses a second archive while the first is
// still open, since both would start at the same tail.
func TestArenaOneOpenArchive(t *testing.T) {
	cfg := NewFlatConfig(benchObjs, 1)
	ar := &MakeArenas(1, 4)[0]
	var a, b FlatArchive
	ar.Open(&a, cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("Open with an archive still open did not panic")
		}
	}()
	ar.Open(&b, cfg)
}

// TestNilArenaIsTheHeap: an archive opened on a nil arena behaves like one
// built as a bare FlatArchive{cfg} — the heap archive every archive was
// before arenas — insert for insert, and Close on a nil arena seals and caps
// it like any other.
func TestNilArenaIsTheHeap(t *testing.T) {
	for _, alpha := range []float64{1, 1.5} {
		cfg := NewFlatConfig(benchObjs, alpha)
		var a FlatArchive
		var ar *Arena
		ar.Open(&a, cfg)
		bare := &FlatArchive{cfg: cfg}
		for i, v := range benchStream(400) {
			e := plan.Entry{Op: int32(i)}
			if got, want := a.Insert(v, e), bare.Insert(v, e); got != want {
				t.Fatalf("alpha %v insert %d: stored=%v, bare archive stored=%v", alpha, i, got, want)
			}
			if d := diffArchives(&a, bare); d != "" {
				t.Fatalf("alpha %v insert %d: %s", alpha, i, d)
			}
		}
		ar.Close(&a)
		if len(a.recs) != cap(a.recs) || len(a.costs) != cap(a.costs) || a.ranked {
			t.Fatalf("alpha %v: Close on a nil arena left the archive open or unsealed", alpha)
		}
		if d := diffArchives(&a, bare); d != "" {
			t.Fatalf("alpha %v after Close: %s", alpha, d)
		}
	}
}
