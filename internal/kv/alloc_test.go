package kv

import (
	"fmt"
	"testing"

	"faust/internal/crypto"
)

var nodeSink *node

// TestAllocBudgetDecodeNode pins the shape of decoding a tree node: the
// node, its entry (or child) slice and one chunk-header array — keys and
// hashes alias the blob — so the cost is the same at fan-out 4 and at the
// default 64. Runs without -race in CI (race instrumentation changes
// alloc counts).
func TestAllocBudgetDecodeNode(t *testing.T) {
	build := func(leaf bool, fanout int) []byte {
		n := &node{leaf: leaf}
		for i := 0; i < fanout; i++ {
			key := fmt.Sprintf("key-%04d", i)
			if leaf {
				n.entries = append(n.entries, entry{Key: key, Size: 2048,
					Chunks: [][]byte{crypto.Hash([]byte(key)), crypto.Hash([]byte(key + "'"))}})
			} else {
				n.children = append(n.children, childRef{minKey: key, count: 3, bytes: 100, hash: crypto.Hash([]byte(key))})
			}
		}
		return encodeNode(n)
	}
	count := func(blob []byte) float64 {
		return testing.AllocsPerRun(200, func() {
			n, err := decodeNode(blob)
			if err != nil {
				t.Fatal(err)
			}
			nodeSink = n
		})
	}
	for _, tc := range []struct {
		name   string
		leaf   bool
		budget float64
	}{{"leaf", true, 3}, {"interior", false, 2}} {
		small, large := count(build(tc.leaf, 4)), count(build(tc.leaf, leafFanout))
		if large > tc.budget {
			t.Errorf("decoding a %s node of fan-out %d costs %.0f allocations, budget is %.0f",
				tc.name, leafFanout, large, tc.budget)
		}
		if large != small {
			t.Errorf("%s decode allocations grow with fan-out: %.0f at 4, %.0f at %d",
				tc.name, small, large, leafFanout)
		}
	}
}

// TestDecodeNodeChunkListsStayApart: every entry's chunk list is carved
// from one shared header array, so the capacity cap is what keeps an
// append through one entry from overwriting the next entry's hashes.
func TestDecodeNodeChunkListsStayApart(t *testing.T) {
	src := &node{leaf: true, entries: []entry{
		{Key: "a", Size: 10, Chunks: [][]byte{crypto.Hash([]byte("a0")), crypto.Hash([]byte("a1"))}},
		testEntry("b", 0),
		testEntry("c", 5),
	}}
	got, err := decodeNode(encodeNode(src))
	if err != nil {
		t.Fatal(err)
	}
	if got.entries[1].Chunks != nil {
		t.Fatal("an empty value decoded with a non-nil chunk list")
	}
	first := got.entries[0].Chunks
	if len(first) != 2 || cap(first) != 2 {
		t.Fatalf("chunk list len %d cap %d, want 2 and 2", len(first), cap(first))
	}
	_ = append(first, crypto.Hash([]byte("intruder")))
	if string(got.entries[2].Chunks[0]) != string(src.entries[2].Chunks[0]) {
		t.Fatal("an append through one entry's chunk list reached its neighbour")
	}
}
