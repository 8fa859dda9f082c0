package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"faust/internal/crypto"
)

// The directory tree: a Merkle B+-tree of content-addressed nodes.
//
// Every node — leaf or interior — encodes to its own blob and is
// addressed by the hash of that encoding; an interior node holds its
// children's hashes, so the root node's content hash commits the entire
// namespace exactly like a classic Merkle root. The owner keeps its tree
// in memory as linked nodes; readers hold none of it and fetch only the
// nodes a lookup traverses, hash-checking each against the reference
// that named it (the root record for the root, the parent node for
// everything below). A mutation copies the root-to-leaf path it touches
// (copy-on-write) and re-uploads just those nodes: O(log n) small blobs
// where the flat directory re-uploaded all n entries.
//
// Invariants, enforced on decode and re-checked during traversal:
//
//   - leaf entries and interior separator keys are strictly increasing,
//     so an encoding is canonical for its content;
//   - every leaf sits at the same depth (splits add siblings, the root
//     grows/collapses by whole levels);
//   - each interior child reference carries the child subtree's minimum
//     key, entry count and byte total, and the fetched child must match
//     all three — so the totals in the root record are pinned,
//     transitively, by the root hash alone.
//
// Nodes are immutable once built: tree ops never modify a node in
// place, which is what makes rollback O(1) (keep the old root pointer)
// and lets concurrent readers walk an old root while a writer commits.

const (
	leafMagic     = "FKVL1"
	interiorMagic = "FKVI1"
)

// leafFanout and interiorFanout size tree nodes: a leaf splits beyond
// leafFanout entries, an interior node beyond interiorFanout children.
// 64-wide nodes keep a 10k-key namespace three levels tall with ~3 KiB
// node blobs. Vars so tests can build deep trees from a few keys.
var leafFanout, interiorFanout = 64, 64

// nodeSplitBytes caps a node's encoded size independently of the fanout:
// a node that grows beyond it splits even when its entry count is under
// the fanout, so no node blob can approach the transport's blob limit.
// (A single entry — bounded by MaxKeyLen and maxChunksPerValue — always
// fits.) A var so tests can shrink it.
var nodeSplitBytes = 4 << 20

// childRef is an interior node's reference to one child subtree: the
// child's content hash plus the subtree facts the parent commits to.
type childRef struct {
	minKey string
	count  uint32 // entries in the subtree
	bytes  int64  // value bytes in the subtree
	hash   []byte // content hash of the child node; nil while dirty
	child  *node  // in-memory child; nil in decoded (reader-side) nodes
}

// node is one tree node. Exactly one of entries (leaf) or children
// (interior) is populated.
type node struct {
	leaf     bool
	entries  []entry
	children []childRef
	hash     []byte // content hash of the canonical encoding; nil while dirty
}

// count returns the number of entries in the subtree.
func (n *node) count() uint32 {
	if n.leaf {
		return uint32(len(n.entries))
	}
	var total uint32
	for i := range n.children {
		total += n.children[i].count
	}
	return total
}

// totalBytes returns the value bytes in the subtree.
func (n *node) totalBytes() int64 {
	if n.leaf {
		var total int64
		for i := range n.entries {
			total += n.entries[i].Size
		}
		return total
	}
	var total int64
	for i := range n.children {
		total += n.children[i].bytes
	}
	return total
}

// minKey returns the smallest key in the subtree. Valid only on
// non-empty nodes.
func (n *node) minKey() string {
	if n.leaf {
		return n.entries[0].Key
	}
	return n.children[0].minKey
}

// ref builds the parent-side reference for this node. The hash is
// carried over when the node is clean, left nil when dirty (commit fills
// it in bottom-up).
func (n *node) ref() childRef {
	return childRef{
		minKey: n.minKey(),
		count:  n.count(),
		bytes:  n.totalBytes(),
		hash:   n.hash,
		child:  n,
	}
}

// findEntry locates key in a leaf's entries: the index and whether it is
// present (absent keys return the insertion index).
func findEntry(entries []entry, key string) (int, bool) {
	i := sort.Search(len(entries), func(i int) bool { return entries[i].Key >= key })
	return i, i < len(entries) && entries[i].Key == key
}

// childIndex picks the child subtree responsible for key: the last child
// whose minKey is <= key, or the leftmost when key sorts before
// everything (inserts there extend its range downward).
func childIndex(children []childRef, key string) int {
	i := sort.Search(len(children), func(i int) bool { return children[i].minKey > key })
	if i > 0 {
		i--
	}
	return i
}

// treePut inserts or replaces e in the tree rooted at root (nil = empty
// tree) and returns the new root. The old root and every node it
// reaches remain untouched.
func treePut(root *node, e entry) *node {
	if root == nil {
		root = &node{leaf: true}
	}
	reps := putRec(root, e)
	if len(reps) == 1 {
		return reps[0]
	}
	// The root split: grow the tree by one level.
	children := make([]childRef, len(reps))
	for i, r := range reps {
		children[i] = r.ref()
	}
	return &node{children: children}
}

// putRec inserts e into the subtree at n and returns the replacement
// node(s) — more than one when the updated node split. n is never
// modified.
func putRec(n *node, e entry) []*node {
	if n.leaf {
		i, ok := findEntry(n.entries, e.Key)
		es := make([]entry, 0, len(n.entries)+1)
		es = append(es, n.entries[:i]...)
		es = append(es, e)
		if ok {
			es = append(es, n.entries[i+1:]...)
		} else {
			es = append(es, n.entries[i:]...)
		}
		return splitLeaf(&node{leaf: true, entries: es})
	}
	i := childIndex(n.children, e.Key)
	reps := putRec(n.children[i].child, e)
	children := make([]childRef, 0, len(n.children)+len(reps)-1)
	children = append(children, n.children[:i]...)
	for _, r := range reps {
		children = append(children, r.ref())
	}
	children = append(children, n.children[i+1:]...)
	return splitInterior(&node{children: children})
}

// splitLeaf halves a leaf (recursively) until it satisfies both the
// fanout and the encoded-size cap.
func splitLeaf(n *node) []*node {
	if len(n.entries) <= 1 ||
		(len(n.entries) <= leafFanout && encodedLeafSize(n.entries) <= nodeSplitBytes) {
		return []*node{n}
	}
	mid := len(n.entries) / 2
	left := &node{leaf: true, entries: n.entries[:mid:mid]}
	right := &node{leaf: true, entries: n.entries[mid:]}
	return append(splitLeaf(left), splitLeaf(right)...)
}

// splitInterior halves an interior node (recursively) until it satisfies
// the fanout and size caps.
func splitInterior(n *node) []*node {
	if len(n.children) <= 1 ||
		(len(n.children) <= interiorFanout && encodedInteriorSize(n.children) <= nodeSplitBytes) {
		return []*node{n}
	}
	mid := len(n.children) / 2
	left := &node{children: n.children[:mid:mid]}
	right := &node{children: n.children[mid:]}
	return append(splitInterior(left), splitInterior(right)...)
}

// treeDelete removes key from the tree rooted at root and returns the
// new root (nil when the tree became empty) and whether the key existed.
// The old root remains untouched.
func treeDelete(root *node, key string) (*node, bool) {
	if root == nil {
		return nil, false
	}
	rep, ok := deleteRec(root, key)
	if !ok {
		return root, false
	}
	// Collapse trivial roots so the height shrinks as the tree empties.
	for rep != nil && !rep.leaf && len(rep.children) == 1 {
		rep = rep.children[0].child
	}
	return rep, true
}

// deleteRec removes key from the subtree at n, returning the replacement
// node (nil when the subtree became empty) and whether the key existed.
// n is never modified.
func deleteRec(n *node, key string) (*node, bool) {
	if n.leaf {
		i, ok := findEntry(n.entries, key)
		if !ok {
			return n, false
		}
		if len(n.entries) == 1 {
			return nil, true
		}
		es := make([]entry, 0, len(n.entries)-1)
		es = append(es, n.entries[:i]...)
		es = append(es, n.entries[i+1:]...)
		return &node{leaf: true, entries: es}, true
	}
	i := childIndex(n.children, key)
	rep, ok := deleteRec(n.children[i].child, key)
	if !ok {
		return n, false
	}
	children := make([]childRef, 0, len(n.children))
	children = append(children, n.children[:i]...)
	if rep != nil {
		children = append(children, rep.ref())
	}
	children = append(children, n.children[i+1:]...)
	if len(children) == 0 {
		return nil, true
	}
	children = mergeUnderfull(children, i)
	return &node{children: children}, true
}

// mergeUnderfull repairs the child list after a delete at index i: when
// the touched child (or its survivor neighbor) fell below a quarter of
// the fanout and a neighbor can absorb it within the caps, the two merge
// into one node. Merging only ever combines same-level siblings, so all
// leaves stay at one depth.
func mergeUnderfull(children []childRef, i int) []childRef {
	j := i
	if j >= len(children)-1 {
		j = len(children) - 2
	}
	if j < 0 {
		return children
	}
	a, b := children[j].child, children[j+1].child
	if a == nil || b == nil || a.leaf != b.leaf {
		return children
	}
	if a.leaf {
		if len(a.entries) >= leafFanout/4 && len(b.entries) >= leafFanout/4 {
			return children
		}
		es := make([]entry, 0, len(a.entries)+len(b.entries))
		es = append(es, a.entries...)
		es = append(es, b.entries...)
		if len(es) > leafFanout || encodedLeafSize(es) > nodeSplitBytes {
			return children
		}
		merged := &node{leaf: true, entries: es}
		return spliceRefs(children, j, merged.ref())
	}
	if len(a.children) >= interiorFanout/4 && len(b.children) >= interiorFanout/4 {
		return children
	}
	cs := make([]childRef, 0, len(a.children)+len(b.children))
	cs = append(cs, a.children...)
	cs = append(cs, b.children...)
	if len(cs) > interiorFanout || encodedInteriorSize(cs) > nodeSplitBytes {
		return children
	}
	merged := &node{children: cs}
	return spliceRefs(children, j, merged.ref())
}

// spliceRefs replaces children[j] and children[j+1] with the single ref.
func spliceRefs(children []childRef, j int, ref childRef) []childRef {
	out := make([]childRef, 0, len(children)-1)
	out = append(out, children[:j]...)
	out = append(out, ref)
	out = append(out, children[j+2:]...)
	return out
}

// treeFind walks a fully loaded (owner-side) tree for key.
func treeFind(root *node, key string) (*entry, bool) {
	n := root
	for n != nil {
		if n.leaf {
			i, ok := findEntry(n.entries, key)
			if !ok {
				return nil, false
			}
			return &n.entries[i], true
		}
		if key < n.children[0].minKey {
			return nil, false
		}
		n = n.children[childIndex(n.children, key)].child
	}
	return nil, false
}

// treeKeys collects the keys of a fully loaded tree in sorted order.
// The keys leave the package, so they are cloned: a decoded key aliases
// its node blob, and a listing the application keeps must not pin the tree.
func treeKeys(root *node, out []string) []string {
	if root == nil {
		return out
	}
	if root.leaf {
		for i := range root.entries {
			out = append(out, strings.Clone(root.entries[i].Key))
		}
		return out
	}
	for i := range root.children {
		out = treeKeys(root.children[i].child, out)
	}
	return out
}

// treeHeight returns the number of levels of a fully loaded tree.
func treeHeight(root *node) uint32 {
	var h uint32
	for n := root; n != nil; {
		h++
		if n.leaf {
			break
		}
		n = n.children[0].child
	}
	return h
}

// Node codec.

// encodedLeafSize is the exact encoded size of a leaf with these entries.
func encodedLeafSize(entries []entry) int {
	size := len(leafMagic) + 4
	for i := range entries {
		size += encodedEntrySize(&entries[i])
	}
	return size
}

// encodedInteriorSize is the exact encoded size of an interior node with
// these children.
func encodedInteriorSize(children []childRef) int {
	size := len(interiorMagic) + 4
	for i := range children {
		size += 4 + len(children[i].minKey) + 4 + 8 + crypto.HashSize
	}
	return size
}

// encodeNode renders a node's canonical blob. Interior children must
// have their hashes resolved (commit encodes bottom-up).
func encodeNode(n *node) []byte {
	var tmp [8]byte
	if n.leaf {
		buf := make([]byte, 0, encodedLeafSize(n.entries))
		buf = append(buf, leafMagic...)
		binary.BigEndian.PutUint32(tmp[:4], uint32(len(n.entries)))
		buf = append(buf, tmp[:4]...)
		for i := range n.entries {
			buf = appendEntry(buf, &n.entries[i])
		}
		return buf
	}
	buf := make([]byte, 0, encodedInteriorSize(n.children))
	buf = append(buf, interiorMagic...)
	binary.BigEndian.PutUint32(tmp[:4], uint32(len(n.children)))
	buf = append(buf, tmp[:4]...)
	for i := range n.children {
		c := &n.children[i]
		binary.BigEndian.PutUint32(tmp[:4], uint32(len(c.minKey)))
		buf = append(buf, tmp[:4]...)
		buf = append(buf, c.minKey...)
		binary.BigEndian.PutUint32(tmp[:4], c.count)
		buf = append(buf, tmp[:4]...)
		binary.BigEndian.PutUint64(tmp[:], uint64(c.bytes))
		buf = append(buf, tmp[:]...)
		buf = append(buf, c.hash...)
	}
	return buf
}

// decodeNode parses and validates a tree-node blob: canonical order
// (strictly increasing keys / separator keys), exact hash sizes, and
// per-entry shape constraints. Decoded nodes carry no child pointers;
// readers follow the hashes.
//
// Ownership: decodeNode takes over data. Keys, chunk hashes and child
// hashes of the returned node alias the blob, so a node costs a constant
// number of allocations whatever its fan-out and the caller must never
// write to or reuse the buffer (getNode hands over the blob it just
// fetched). A retained entry pins at most the one node blob it came from;
// keys that leave the package are cloned.
func decodeNode(data []byte) (*node, error) {
	if len(data) >= len(leafMagic) && string(data[:len(leafMagic)]) == leafMagic {
		r := &reader{data: data[len(leafMagic):]}
		cnt := r.u32()
		// An entry encodes to at least EncodedEntrySize(1, 0) bytes, so a
		// count the remaining data cannot possibly hold is rejected BEFORE
		// the allocation it would size — a tiny blob must not be able to
		// demand a huge slice.
		if r.err != nil || cnt > maxNodeEntries || int(cnt) > len(r.data)/EncodedEntrySize(1, 0) {
			return nil, fmt.Errorf("%w: leaf entry count", errCodec)
		}
		entries := make([]entry, 0, cnt)
		// One header array for every entry's chunk list: an entry spends
		// at least EncodedEntrySize(1, 0) bytes outside its hashes, which
		// bounds the hashes the blob can hold (slack: a header per 32 key bytes).
		arena := make([][]byte, 0, (len(r.data)-int(cnt)*EncodedEntrySize(1, 0))/crypto.HashSize)
		prev := ""
		for i := uint32(0); i < cnt; i++ {
			e, err := readEntry(r, &arena)
			if err != nil {
				return nil, err
			}
			if i > 0 && e.Key <= prev {
				return nil, fmt.Errorf("%w: leaf keys not strictly sorted", errCodec)
			}
			prev = e.Key
			entries = append(entries, e)
		}
		if len(r.data) != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes", errCodec, len(r.data))
		}
		return &node{leaf: true, entries: entries}, nil
	}
	if len(data) >= len(interiorMagic) && string(data[:len(interiorMagic)]) == interiorMagic {
		r := &reader{data: data[len(interiorMagic):]}
		cnt := r.u32()
		// Same anti-allocation bound as leaves: a child ref encodes to at
		// least 4+1+4+8+HashSize bytes.
		minRef := 4 + 1 + 4 + 8 + crypto.HashSize
		if r.err != nil || cnt == 0 || cnt > maxNodeEntries || int(cnt) > len(r.data)/minRef {
			return nil, fmt.Errorf("%w: interior child count", errCodec)
		}
		children := make([]childRef, 0, cnt)
		prev := ""
		for i := uint32(0); i < cnt; i++ {
			klen := r.u32()
			if r.err != nil || klen == 0 || klen > MaxKeyLen {
				return nil, fmt.Errorf("%w: separator key length", errCodec)
			}
			minKey := r.str(int(klen))
			count := r.u32()
			nbytes := r.i64()
			hash := r.take(crypto.HashSize)
			if r.err != nil {
				return nil, r.err
			}
			if count == 0 || nbytes < 0 {
				return nil, fmt.Errorf("%w: child subtree counts", errCodec)
			}
			if i > 0 && minKey <= prev {
				return nil, fmt.Errorf("%w: separator keys not strictly sorted", errCodec)
			}
			prev = minKey
			children = append(children, childRef{minKey: minKey, count: count, bytes: nbytes, hash: hash})
		}
		if len(r.data) != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes", errCodec, len(r.data))
		}
		return &node{children: children}, nil
	}
	return nil, fmt.Errorf("%w: bad tree node magic", errCodec)
}

// checkRef validates a fetched node against the reference that named it:
// the parent's (or root record's) declared minimum key and subtree
// totals must match what the node actually contains. The hash itself was
// already checked against the blob, so together these pin every fact a
// reader relies on to the register-committed root hash.
func checkRef(n *node, minKey string, count uint32, nbytes int64) error {
	if n.leaf && len(n.entries) == 0 {
		return fmt.Errorf("kv: empty tree node on a committed path")
	}
	if n.minKey() != minKey {
		return fmt.Errorf("kv: tree node minimum key mismatch")
	}
	if n.count() != count || n.totalBytes() != nbytes {
		return fmt.Errorf("kv: tree metadata mismatch")
	}
	return nil
}

// treeCheck verifies a fully loaded subtree's structural invariants.
// Used by tests and the owner's bootstrap as a defense-in-depth check;
// returns the subtree height.
func treeCheck(n *node) (uint32, error) {
	if n.leaf {
		for i := 1; i < len(n.entries); i++ {
			if n.entries[i].Key <= n.entries[i-1].Key {
				return 0, fmt.Errorf("kv: leaf keys out of order")
			}
		}
		return 1, nil
	}
	if len(n.children) == 0 {
		return 0, fmt.Errorf("kv: interior node without children")
	}
	var h uint32
	for i := range n.children {
		c := &n.children[i]
		if c.child == nil {
			return 0, fmt.Errorf("kv: unloaded child in owner tree")
		}
		if err := checkRef(c.child, c.minKey, c.count, c.bytes); err != nil {
			return 0, err
		}
		if i > 0 && c.minKey <= n.children[i-1].minKey {
			return 0, fmt.Errorf("kv: separator keys out of order")
		}
		ch, err := treeCheck(c.child)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			h = ch
		} else if ch != h {
			return 0, fmt.Errorf("kv: leaves at unequal depths")
		}
		if c.child.hash != nil && c.hash != nil && !bytes.Equal(c.child.hash, c.hash) {
			return 0, fmt.Errorf("kv: child hash reference out of sync")
		}
	}
	return h + 1, nil
}
