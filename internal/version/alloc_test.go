package version

import (
	"bytes"
	"testing"

	"faust/internal/crypto"
)

// fullVersion returns a version whose n digests are all present.
func fullVersion(n int) Version {
	v := New(n)
	for i := range v.V {
		v.V[i] = int64(i + 1)
		v.M[i] = DigestStep(nil, i)
	}
	return v
}

var cloneSink Version

// TestAllocBudgetClone pins the shape of a clone: three allocations — V,
// the digest headers, one block behind every digest — whatever n is.
// Runs without -race in CI (race instrumentation changes alloc counts).
func TestAllocBudgetClone(t *testing.T) {
	for _, n := range []int{2, 16, 64} {
		v := fullVersion(n)
		if got := testing.AllocsPerRun(200, func() { cloneSink = v.Clone() }); got > 3 {
			t.Errorf("Clone of an n=%d version costs %.0f allocations, budget is 3", n, got)
		}
	}
}

// TestCloneBlockBackedDigestsAreIndependent: the digests of a clone share
// one backing block, so the capacity cap is what keeps them apart — an
// in-place overwrite (CopyFrom, DigestStepInto) or an append through one
// entry must not reach its neighbour, the original, or nil entries.
func TestCloneBlockBackedDigestsAreIndependent(t *testing.T) {
	v := fullVersion(4)
	v.M[2] = nil // bottom must survive the block layout
	want := v.Clone()
	c := v.Clone()
	if !c.Equal(v) || c.M[2] != nil {
		t.Fatalf("clone differs from its source: %v vs %v", c, v)
	}
	for i, d := range c.M {
		if d != nil && (len(d) != crypto.HashSize || cap(d) != crypto.HashSize) {
			t.Fatalf("M[%d]: len %d cap %d, want both %d", i, len(d), cap(d), crypto.HashSize)
		}
	}

	// Overwrite one digest in place, the way updateVersion does.
	next := DigestStep(c.M[1], 1)
	c.M[1] = DigestStepInto(c.M[1][:0], c.M[1], 1)
	if !bytes.Equal(c.M[1], next) {
		t.Fatal("in-place digest step computed the wrong digest")
	}
	// Appending through an entry must reallocate, not spill into M[3].
	_ = append(c.M[0], 0xFF)
	if !bytes.Equal(c.M[0], want.M[0]) || !bytes.Equal(c.M[3], want.M[3]) {
		t.Fatal("a write through one digest reached its neighbour in the block")
	}
	if !v.Equal(want) {
		t.Fatal("a write through the clone reached the original")
	}

	// CopyFrom into a block-backed version reuses the block.
	src := fullVersion(4)
	if got := testing.AllocsPerRun(50, func() { c.CopyFrom(src) }); got != 0 {
		t.Errorf("CopyFrom into a block-backed clone costs %.0f allocations, want 0", got)
	}
	if !c.Equal(src) {
		t.Fatal("CopyFrom into a block-backed clone produced a different version")
	}
}
