package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"faust/internal/crypto"
)

func testEntry(key string, size int) entry {
	e := entry{Key: key, Size: int64(size)}
	if size > 0 {
		e.Chunks = [][]byte{crypto.Hash([]byte(key))}
	}
	return e
}

// setFanout sets the tree fanouts for one test and restores them at its
// end. No kv test runs in parallel, so swapping the package vars is safe.
func setFanout(t *testing.T, leaf, interior int) {
	t.Helper()
	oldLeaf, oldInterior := leafFanout, interiorFanout
	leafFanout, interiorFanout = leaf, interior
	t.Cleanup(func() { leafFanout, interiorFanout = oldLeaf, oldInterior })
}

// checkTree asserts every structural invariant of a fully loaded tree
// and returns its height.
func checkTree(t *testing.T, root *node) uint32 {
	t.Helper()
	if root == nil {
		return 0
	}
	h, err := treeCheck(root)
	if err != nil {
		t.Fatalf("tree invariant broken: %v", err)
	}
	return h
}

// TestTreeRandomOpsAgainstSortedModel drives the tree through random
// inserts, overwrites and deletes with a tiny fanout (deep trees, many
// splits and merges) and checks contents, counts and invariants against
// a sorted-map model after every operation batch.
func TestTreeRandomOpsAgainstSortedModel(t *testing.T) {
	setFanout(t, 4, 4)
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		model := map[string]int{}
		var root *node
		for step := 0; step < 600; step++ {
			key := fmt.Sprintf("k%03d", rng.Intn(120))
			if rng.Intn(3) == 0 {
				newRoot, ok := treeDelete(root, key)
				_, inModel := model[key]
				if ok != inModel {
					t.Fatalf("seed %d step %d: delete %q found=%v, model=%v", seed, step, key, ok, inModel)
				}
				root = newRoot
				delete(model, key)
			} else {
				size := rng.Intn(50)
				root = treePut(root, testEntry(key, size))
				model[key] = size
			}
			if step%37 == 0 {
				checkTree(t, root)
			}
		}
		checkTree(t, root)

		// Full content comparison.
		keys := treeKeys(root, nil)
		want := make([]string, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		sort.Strings(want)
		if len(keys) != len(want) {
			t.Fatalf("seed %d: %d keys, model has %d", seed, len(keys), len(want))
		}
		for i := range want {
			if keys[i] != want[i] {
				t.Fatalf("seed %d: key list diverged at %d: %q vs %q", seed, i, keys[i], want[i])
			}
			e, ok := treeFind(root, want[i])
			if !ok || e.Size != int64(model[want[i]]) {
				t.Fatalf("seed %d: find %q = %+v, %v", seed, want[i], e, ok)
			}
		}
		if _, ok := treeFind(root, "absent-key"); ok {
			t.Fatalf("seed %d: found a key that was never inserted", seed)
		}

		// Drain: delete everything and end at the empty tree.
		for _, k := range want {
			var ok bool
			root, ok = treeDelete(root, k)
			if !ok {
				t.Fatalf("seed %d: drain delete %q missed", seed, k)
			}
		}
		if root != nil {
			t.Fatalf("seed %d: tree not empty after deleting every key", seed)
		}
	}
}

// TestTreeCopyOnWrite: mutations never change the nodes an old root
// reaches, so a pre-mutation root keeps serving the pre-mutation
// contents — the property O(1) rollback and lock-free readers rely on.
func TestTreeCopyOnWrite(t *testing.T) {
	setFanout(t, 4, 4)
	var root *node
	for i := 0; i < 40; i++ {
		root = treePut(root, testEntry(fmt.Sprintf("k%03d", i), i))
	}
	old := root
	oldKeys := treeKeys(old, nil)

	root = treePut(root, testEntry("k005", 999))
	root = treePut(root, testEntry("zzz", 1))
	root, _ = treeDelete(root, "k010")

	// The old root still sees the old world.
	if e, ok := treeFind(old, "k005"); !ok || e.Size != 5 {
		t.Fatalf("old root sees mutated entry: %+v, %v", e, ok)
	}
	if _, ok := treeFind(old, "zzz"); ok {
		t.Fatal("old root sees a later insert")
	}
	if e, ok := treeFind(old, "k010"); !ok || e.Size != 10 {
		t.Fatalf("old root lost a later-deleted key: %+v, %v", e, ok)
	}
	after := treeKeys(old, nil)
	if len(after) != len(oldKeys) {
		t.Fatalf("old root key count moved: %d -> %d", len(oldKeys), len(after))
	}
	// And the new root sees the new world.
	if e, ok := treeFind(root, "k005"); !ok || e.Size != 999 {
		t.Fatalf("new root missed the overwrite: %+v, %v", e, ok)
	}
	if _, ok := treeFind(root, "k010"); ok {
		t.Fatal("new root still has the deleted key")
	}
	checkTree(t, root)
	checkTree(t, old)
}

// TestTreeSplitBySize: a node whose ENCODED size exceeds the cap splits
// even when its entry count is within the fanout, so node blobs stay
// bounded whatever the fanout configuration says.
func TestTreeSplitBySize(t *testing.T) {
	oldCap := nodeSplitBytes
	nodeSplitBytes = 2048
	defer func() { nodeSplitBytes = oldCap }()

	setFanout(t, 1<<20, 1<<20) // fanout effectively unbounded
	var root *node
	for i := 0; i < 64; i++ {
		// ~100-byte entries: the size cap, not the fanout, must split.
		key := fmt.Sprintf("key-%04d-%s", i, string(bytes.Repeat([]byte{'x'}, 40)))
		e := entry{Key: key, Size: 64, Chunks: [][]byte{crypto.Hash([]byte(key)), crypto.Hash([]byte(key + "2"))}}
		root = treePut(root, e)
	}
	if h := checkTree(t, root); h < 2 {
		t.Fatalf("size cap did not split: height %d, want >= 2", h)
	}
	var walk func(n *node)
	walk = func(n *node) {
		enc := encodeNode(n)
		if len(enc) > nodeSplitBytes+512 {
			t.Fatalf("node encoding of %d bytes far exceeds the %d cap", len(enc), nodeSplitBytes)
		}
		for i := range n.children {
			walk(n.children[i].child)
		}
	}
	// Hashes are not resolved here; encode interior nodes with child
	// hashes filled so encodeNode has them.
	var resolve func(n *node) []byte
	resolve = func(n *node) []byte {
		if !n.leaf {
			for i := range n.children {
				n.children[i].hash = resolve(n.children[i].child)
			}
		}
		enc := encodeNode(n)
		return crypto.Hash(enc)
	}
	resolve(root)
	walk(root)
}

// TestNodeCodecRoundTrip: leaves and interior nodes survive the codec
// canonically.
func TestNodeCodecRoundTrip(t *testing.T) {
	leaf := &node{leaf: true, entries: []entry{
		testEntry("a", 0),
		testEntry("b", 7),
		{Key: "c", Size: 100, Chunks: [][]byte{crypto.Hash([]byte("1")), crypto.Hash([]byte("2"))}},
	}}
	emptyLeaf := &node{leaf: true}
	interior := &node{children: []childRef{
		{minKey: "a", count: 3, bytes: 107, hash: crypto.Hash([]byte("left"))},
		{minKey: "m", count: 2, bytes: 30, hash: crypto.Hash([]byte("right"))},
	}}
	for _, n := range []*node{leaf, emptyLeaf, interior} {
		enc := encodeNode(n)
		got, err := decodeNode(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !bytes.Equal(encodeNode(got), enc) {
			t.Fatal("node did not round-trip canonically")
		}
		if got.leaf != n.leaf || got.count() != n.count() || got.totalBytes() != n.totalBytes() {
			t.Fatalf("node facts changed across the codec: %+v vs %+v", got, n)
		}
	}
	if got := encodedLeafSize(leaf.entries); got != len(encodeNode(leaf)) {
		t.Fatalf("encodedLeafSize = %d, encoding is %d", got, len(encodeNode(leaf)))
	}
	if got := encodedInteriorSize(interior.children); got != len(encodeNode(interior)) {
		t.Fatalf("encodedInteriorSize = %d, encoding is %d", got, len(encodeNode(interior)))
	}
}

// TestNodeCodecRejectsMalformed: unsorted, inconsistent or truncated
// node encodings die cleanly, so a server cannot present two encodings
// of one node (or a bogus one) without changing its hash.
func TestNodeCodecRejectsMalformed(t *testing.T) {
	unsortedLeaf := &node{leaf: true, entries: []entry{testEntry("b", 1), testEntry("a", 1)}}
	if _, err := decodeNode(encodeNode(unsortedLeaf)); err == nil {
		t.Fatal("unsorted leaf accepted")
	}
	dupLeaf := &node{leaf: true, entries: []entry{testEntry("a", 1), testEntry("a", 2)}}
	if _, err := decodeNode(encodeNode(dupLeaf)); err == nil {
		t.Fatal("duplicate key accepted")
	}
	// Size/chunk inconsistency.
	bad := &node{leaf: true, entries: []entry{{Key: "a", Size: 7}}}
	if _, err := decodeNode(encodeNode(bad)); err == nil {
		t.Fatal("sized entry without chunks accepted")
	}
	unsortedInt := &node{children: []childRef{
		{minKey: "m", count: 1, bytes: 1, hash: crypto.Hash([]byte("1"))},
		{minKey: "a", count: 1, bytes: 1, hash: crypto.Hash([]byte("2"))},
	}}
	if _, err := decodeNode(encodeNode(unsortedInt)); err == nil {
		t.Fatal("unsorted interior node accepted")
	}
	zeroCount := &node{children: []childRef{{minKey: "a", count: 0, bytes: 0, hash: crypto.Hash([]byte("1"))}}}
	if _, err := decodeNode(encodeNode(zeroCount)); err == nil {
		t.Fatal("zero-count child accepted")
	}
	if _, err := decodeNode([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted as a tree node")
	}
	// Truncations die cleanly, for both node kinds.
	for _, blob := range [][]byte{
		encodeNode(&node{leaf: true, entries: []entry{testEntry("x", 5), testEntry("y", 6)}}),
		encodeNode(&node{children: []childRef{
			{minKey: "a", count: 1, bytes: 5, hash: crypto.Hash([]byte("c"))},
			{minKey: "b", count: 1, bytes: 6, hash: crypto.Hash([]byte("d"))},
		}}),
	} {
		for l := 0; l < len(blob); l++ {
			if _, err := decodeNode(blob[:l]); err == nil {
				t.Fatalf("truncation to %d bytes accepted", l)
			}
		}
		if _, err := decodeNode(append(append([]byte(nil), blob...), 0)); err == nil {
			t.Fatal("trailing garbage accepted")
		}
	}
}

// TestCheckRef: a child that does not match the facts its parent
// committed — min key, entry count, byte total — is rejected.
func TestCheckRef(t *testing.T) {
	child := &node{leaf: true, entries: []entry{testEntry("k1", 10), testEntry("k2", 20)}}
	if err := checkRef(child, "k1", 2, 30); err != nil {
		t.Fatalf("honest ref rejected: %v", err)
	}
	if err := checkRef(child, "k0", 2, 30); err == nil {
		t.Fatal("wrong min key accepted")
	}
	if err := checkRef(child, "k1", 3, 30); err == nil {
		t.Fatal("wrong count accepted")
	}
	if err := checkRef(child, "k1", 2, 31); err == nil {
		t.Fatal("wrong byte total accepted")
	}
	if err := checkRef(&node{leaf: true}, "k1", 0, 0); err == nil {
		t.Fatal("empty committed node accepted")
	}
}

// TestRootRecordRoundTrip pins the register-value codec, including the
// consistency rules between the counts, the height and the root hash.
func TestRootRecordRoundTrip(t *testing.T) {
	rr := &rootRecord{
		Gen:        42,
		NumEntries: 3,
		TotalBytes: 12345,
		Height:     2,
		RootHash:   crypto.Hash([]byte("root")),
	}
	enc := encodeRoot(rr)
	got, err := decodeRoot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Gen != rr.Gen || got.NumEntries != rr.NumEntries || got.TotalBytes != rr.TotalBytes ||
		got.Height != rr.Height || !bytes.Equal(got.RootHash, rr.RootHash) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, rr)
	}
	if _, err := decodeRoot(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated root record accepted")
	}
	if _, err := decodeRoot([]byte("not a root record")); err == nil {
		t.Fatal("garbage accepted as root record")
	}

	// The empty namespace has exactly one valid encoding.
	empty := &rootRecord{Gen: 7, RootHash: emptyTreeRoot}
	if _, err := decodeRoot(encodeRoot(empty)); err != nil {
		t.Fatalf("valid empty record rejected: %v", err)
	}
	badEmpty := &rootRecord{Gen: 7, RootHash: crypto.Hash([]byte("not empty"))}
	if _, err := decodeRoot(encodeRoot(badEmpty)); err == nil {
		t.Fatal("empty record with a non-empty root hash accepted")
	}
	tallEmpty := &rootRecord{Gen: 7, Height: 1, RootHash: emptyTreeRoot}
	if _, err := decodeRoot(encodeRoot(tallEmpty)); err == nil {
		t.Fatal("empty record with nonzero height accepted")
	}
	// Height bounds on non-empty records.
	absurd := &rootRecord{Gen: 1, NumEntries: 1, TotalBytes: 1, Height: maxTreeHeight + 1, RootHash: crypto.Hash([]byte("x"))}
	if _, err := decodeRoot(encodeRoot(absurd)); err == nil {
		t.Fatal("absurd height accepted")
	}
	flat := &rootRecord{Gen: 1, NumEntries: 1, TotalBytes: 1, Height: 0, RootHash: crypto.Hash([]byte("x"))}
	if _, err := decodeRoot(encodeRoot(flat)); err == nil {
		t.Fatal("non-empty record with zero height accepted")
	}
}
