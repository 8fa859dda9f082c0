// Package kv is the authenticated key-value layer over FAUST registers:
// the application-facing data model the ROADMAP calls for.
//
// Each client owns one fail-aware register (package ustor). Instead of a
// single opaque value, the register holds a small ROOT RECORD — the
// content hash of the root node of the client's directory TREE plus
// counts — while the tree nodes and all value chunks travel over the
// transport's bulk blob channel as content-addressed blobs. The tree is
// a Merkle B+-tree (see tree.go): a mutation re-uploads only the
// root-to-leaf path it touched, and a cross-client point read fetches
// and verifies only the nodes it traverses — O(log n) small blobs per
// operation where the flat-directory design moved all n entries.
// Because the root record rides on WriteX/ReadX, every Get/Put/Delete
// inherits the protocol's guarantees end to end:
//
//   - integrity: a tampered chunk or tree node fails its content hash
//     check (every node is fetched by the hash its parent — or the root
//     record — committed) and the operation errors out before any value
//     byte is returned;
//   - fail-awareness: a forking or rolling-back server trips the usual
//     Algorithm 1 checks during the register read/write, the client
//     outputs fail and halts — through the KV API;
//   - single-writer semantics: only the register owner can change its
//     namespace (the root record is covered by the owner's signatures).
//
// Values larger than the chunk size are split into content-addressed
// chunks, deduplicated against previously uploaded ones. Chunk and node
// fetches run with bounded parallelism over the blob channel, which
// pipelines them on one connection. One cache mechanism (cache.go: a map
// under a byte budget that evicts arbitrary entries) backs three client
// caches: verified chunks, re-hashed on every hit, serve repeated reads
// without bulk transfers; verified tree nodes, immutable under their
// content hash, are reused across reads; and assembled remote values,
// also re-hashed on every hit, let CachedGetFrom answer with no server
// round trip at all while the client's observed version of the owner's
// register is unchanged.
package kv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"

	"faust/internal/crypto"
	"faust/internal/obs"
	"faust/internal/obs/trace"
	"faust/internal/transport"
	"faust/internal/ustor"
	"faust/internal/version"
)

// Span names of the KV stages. Static constants (hotpathalloc): the
// record path never formats. Operation roots are created per public
// call; node/chunk spans nest under them and, through the blob channel,
// over the wire into the server's trace entry for the same ID.
const (
	spanPut    = "kv.put"
	spanGet    = "kv.get"
	spanGetF   = "kv.getfrom"
	spanList   = "kv.list"
	spanDelete = "kv.delete"
	spanNode   = "kv.node"
	spanChunk  = "kv.chunk"
)

// DefaultChunkSize is the default split size for values. Values up to
// one chunk cost exactly one blob round trip.
const DefaultChunkSize = 64 << 10

// DefaultFetchParallelism bounds how many chunk or tree-node fetches a
// single operation keeps in flight on the blob channel.
const DefaultFetchParallelism = 8

// ErrNotFound is returned when a key is absent from the namespace.
var ErrNotFound = errors.New("kv: key not found")

// Register is the slice of the ustor client the KV layer drives:
// extended reads and writes on fail-aware registers plus version
// introspection. *ustor.Client implements it. Implementations must be
// safe for concurrent use (ustor.Client serializes operations
// internally); the KV layer issues register calls without holding its
// own locks so blob traffic never queues behind a register round trip.
type Register interface {
	ID() int
	N() int
	WriteX(ctx context.Context, x []byte) (ustor.OpResult, error)
	ReadX(ctx context.Context, j int) (ustor.ReadResult, error)
	Version() version.Version
	// ObservedTimestamp returns V[j] of the client's current version
	// without copying it; the value cache consults it on every hit.
	ObservedTimestamp(j int) int64
}

var _ Register = (*ustor.Client)(nil)

// Stats counts the store's traffic split by path. Round trips through
// the register (server dispatcher) and through the bulk blob channel are
// tracked separately; cache hits explain their absence. The byte
// counters cover blob payloads only (chunks and tree nodes), which is
// what grows with namespace and value size — register records are
// constant-size.
type Stats struct {
	RegisterReads  int64 // ReadX round trips
	RegisterWrites int64 // WriteX round trips
	BlobPuts       int64 // chunk + tree-node uploads
	BlobGets       int64 // chunk + tree-node downloads
	BlobPutBytes   int64 // payload bytes uploaded
	BlobGetBytes   int64 // payload bytes downloaded
	ChunkCacheHits int64 // chunk fetches served from the validating cache
	NodeCacheHits  int64 // tree-node fetches served from the node cache
	ValueCacheHits int64 // CachedGetFrom served entirely locally
}

// Option configures a Store.
type Option func(*Store)

// WithChunkSize sets the value split size (default DefaultChunkSize).
func WithChunkSize(n int) Option {
	return func(s *Store) {
		if n > 0 {
			s.chunkSize = n
		}
	}
}

// WithChunkCacheBudget bounds the bytes the validating chunk cache may
// hold (default 64 MiB). Zero disables chunk caching.
func WithChunkCacheBudget(n int) Option {
	return func(s *Store) { s.chunks.budget = n }
}

// WithNodeCacheBudget bounds the bytes (encoded size) of verified tree
// nodes kept for reuse across reads (default 16 MiB). Zero disables node
// caching, making every remote read fetch its full path (the cold-read
// configuration).
func WithNodeCacheBudget(n int) Option {
	return func(s *Store) { s.nodes.budget = n }
}

// WithValueCacheBudget bounds the bytes CachedGetFrom's assembled-value
// cache may hold (default 64 MiB), independent of the chunk cache's
// budget. Zero disables value caching (CachedGetFrom then always falls
// through to GetFrom).
func WithValueCacheBudget(n int) Option {
	return func(s *Store) { s.values.budget = n }
}

// Item is one key/value pair for PutBatch.
type Item struct {
	Key   string
	Value []byte
}

// valueKey names one remote value: the owner's index and the key.
type valueKey struct {
	owner int
	key   string
}

// cachedValue is one fully assembled remote value in the value cache.
type cachedValue struct {
	value  []byte
	digest []byte // content hash of value, re-checked on every hit
	ownerT int64  // owner register timestamp the value was read at
}

// Store is one client's view of the KV namespace: read-write for its own
// keys, read-only (Get*From) for every other client's. Safe for
// concurrent use. Writers (Put/PutBatch/Delete) serialize with each
// other; reads run concurrently with them and with each other — the
// mutex guards only in-memory state, never a network or register round
// trip, so blob transfers from different operations overlap on the
// pipelined channel. The three caches are byteCaches, each charged in
// bytes against its own budget (the With*CacheBudget options).
type Store struct {
	reg       Register
	blobs     transport.BlobChannel
	chunkSize int

	wmu sync.Mutex // serializes mutations of the own namespace

	mu     sync.Mutex
	root   *node                            // own directory tree, authoritative (single writer); nil = empty
	gen    uint64                           // own mutation counter, persisted in the root record
	chunks byteCache[string, []byte]        // verified chunks by content hash
	nodes  byteCache[string, *node]         // verified, immutable tree nodes by content hash, charged their encoded size
	values byteCache[valueKey, cachedValue] // CachedGetFrom's assembled remote values

	stats  statCounters // lock-free; see stats.go
	events *obs.EventLog
}

// WithEventLog routes the store's protocol events (blob-tamper
// detections) to l instead of the process-wide default event log.
func WithEventLog(l *obs.EventLog) Option {
	return func(s *Store) { s.events = l }
}

// Open creates the store and bootstraps the own namespace from the
// register: a never-written register (nil value — see ustor.Client.Read)
// starts the empty directory; an existing root record is fetched and the
// whole tree loaded and verified so a client resuming within a process
// continues its namespace.
func Open(reg Register, blobs transport.BlobChannel, opts ...Option) (*Store, error) {
	s := &Store{
		reg:       reg,
		blobs:     blobs,
		chunkSize: DefaultChunkSize,
		chunks:    byteCache[string, []byte]{budget: 64 << 20},
		nodes:     byteCache[string, *node]{budget: 16 << 20},
		values:    byteCache[valueKey, cachedValue]{budget: 64 << 20},
	}
	for _, o := range opts {
		o(s)
	}
	if s.events == nil {
		s.events = obs.Default().Events()
	}
	res, err := reg.ReadX(context.Background(), reg.ID())
	if err != nil {
		return nil, fmt.Errorf("kv: bootstrapping from own register: %w", err)
	}
	s.stats.registerReads.Add(1)
	if res.Value != nil {
		rr, err := decodeRoot(res.Value)
		if err != nil {
			return nil, fmt.Errorf("kv: own register: %w", err)
		}
		root, err := s.loadTree(context.Background(), rr)
		if err != nil {
			return nil, fmt.Errorf("kv: recovering own directory: %w", err)
		}
		s.root = root
		s.gen = rr.Gen
	}
	return s, nil
}

// ID returns the owning client's index.
func (s *Store) ID() int { return s.reg.ID() }

// Stats returns a snapshot of the traffic counters. The counters are
// atomics, so this never blocks on (or races with) in-flight operations.
func (s *Store) Stats() Stats {
	return s.stats.snapshot()
}

// Root returns the current root hash of the own directory tree (the
// fixed empty-tree hash for an empty namespace).
func (s *Store) Root() []byte {
	s.mu.Lock()
	root := s.root
	s.mu.Unlock()
	if root == nil {
		return append([]byte(nil), emptyTreeRoot...)
	}
	return append([]byte(nil), root.hash...)
}

// Len returns the number of keys in the own namespace.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.root == nil {
		return 0
	}
	return int(s.root.count())
}

// Height returns the number of levels of the own directory tree (0 for
// an empty namespace). Exposed for benchmarks and introspection.
func (s *Store) Height() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(treeHeight(s.root))
}

// Keys returns the own namespace's keys in sorted order.
func (s *Store) Keys() []string {
	s.mu.Lock()
	root := s.root
	s.mu.Unlock()
	return treeKeys(root, nil)
}

// Put stores value under key in the own namespace: chunks are uploaded
// (deduplicated against the cache), the dirty tree path is uploaded,
// and the new root record is committed through the fail-aware register.
// The value may be empty; nil is stored as empty. A failed Put leaves
// the namespace unchanged (the previous tree is immutable; rollback is
// dropping the new root, an O(1) pointer discard).
// The context carries the operation's trace (see package obs/trace);
// pass context.Background() when untraced.
func (s *Store) Put(ctx context.Context, key string, value []byte) error {
	return s.PutBatch(ctx, []Item{{Key: key, Value: value}})
}

// PutBatch stores several key/value pairs in one commit: one tree
// rebuild, one root-record write, chunk uploads deduplicated and issued
// with bounded parallelism. Later items win on duplicate keys. The
// batch is atomic — either the single commit publishes every pair or
// the namespace is unchanged.
func (s *Store) PutBatch(ctx context.Context, items []Item) error {
	if len(items) == 0 {
		return nil
	}
	ctx, op := trace.Start(ctx, spanPut)
	defer op.End()
	// Validate everything BEFORE any byte leaves the client: an
	// oversized entry would commit state every reader — and the owner's
	// own next bootstrap — rejects as malformed.
	for i := range items {
		if err := validKey(items[i].Key); err != nil {
			return err
		}
		nchunks := (len(items[i].Value) + s.chunkSize - 1) / s.chunkSize
		if nchunks > maxChunksPerValue {
			return fmt.Errorf("kv: value of %d bytes needs %d chunks, limit %d (raise the chunk size)",
				len(items[i].Value), nchunks, maxChunksPerValue)
		}
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()

	// Chunk every value (hashing outside any lock), then collect the
	// chunks the cache doesn't already know, deduplicated across items.
	entries := make([]entry, len(items))
	type pendingChunk struct{ hash, data []byte }
	var uploads []pendingChunk
	seen := make(map[string]struct{})
	for i := range items {
		v := items[i].Value
		e := entry{Key: items[i].Key, Size: int64(len(v))}
		for off := 0; off < len(v); off += s.chunkSize {
			end := off + s.chunkSize
			if end > len(v) {
				end = len(v)
			}
			chunk := v[off:end]
			h := crypto.Hash(chunk)
			e.Chunks = append(e.Chunks, h)
			if _, dup := seen[string(h)]; !dup {
				seen[string(h)] = struct{}{}
				uploads = append(uploads, pendingChunk{hash: h, data: chunk})
			}
		}
		entries[i] = e
	}
	s.mu.Lock()
	missing := uploads[:0]
	for _, u := range uploads {
		if _, ok := s.chunks.get(string(u.hash)); !ok {
			missing = append(missing, u)
		}
	}
	s.mu.Unlock()
	if err := s.forEachParallel(len(missing), func(k int) error {
		u := missing[k]
		cctx, h := trace.Child(ctx, spanChunk)
		defer h.End()
		if err := s.blobs.PutBlob(cctx, u.hash, u.data); err != nil {
			return fmt.Errorf("kv: uploading chunk: %w", err)
		}
		s.stats.blobPut(len(u.data))
		s.mu.Lock()
		s.chunks.put(string(u.hash), append([]byte(nil), u.data...), len(u.data))
		s.mu.Unlock()
		return nil
	}); err != nil {
		return err
	}

	// Copy-on-write inserts: the current tree is never modified, so a
	// commit failure needs no rollback at all.
	s.mu.Lock()
	root := s.root
	s.mu.Unlock()
	for i := range entries {
		root = treePut(root, entries[i])
	}
	return s.commit(ctx, root)
}

// Delete removes key from the own namespace. Deleting an absent key
// returns ErrNotFound. Chunks and orphaned tree nodes are not
// garbage-collected from the blob store (content addressing makes them
// harmless; other entries or readers may share them).
func (s *Store) Delete(ctx context.Context, key string) error {
	ctx, op := trace.Start(ctx, spanDelete)
	defer op.End()
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	root := s.root
	s.mu.Unlock()
	newRoot, ok := treeDelete(root, key)
	if !ok {
		return ErrNotFound
	}
	return s.commit(ctx, newRoot)
}

// commit uploads the dirty nodes of newRoot's path (everything without a
// hash yet, bottom-up) and writes the new root record through the
// register. Only on success does the in-memory root advance; a failure
// leaves the previous, still-valid tree in place — O(1) rollback by
// construction. Caller holds s.wmu.
func (s *Store) commit(ctx context.Context, newRoot *node) error {
	rr := &rootRecord{Gen: s.gen + 1, RootHash: emptyTreeRoot}
	if newRoot != nil {
		if err := s.uploadDirty(ctx, newRoot); err != nil {
			return err
		}
		rr.NumEntries = newRoot.count()
		rr.TotalBytes = newRoot.totalBytes()
		rr.Height = treeHeight(newRoot)
		rr.RootHash = newRoot.hash
	}
	if _, err := s.reg.WriteX(ctx, encodeRoot(rr)); err != nil {
		return fmt.Errorf("kv: committing root record: %w", err)
	}
	s.mu.Lock()
	s.root = newRoot
	s.gen = rr.Gen
	s.mu.Unlock()
	s.stats.registerWrites.Add(1)
	return nil
}

// uploadDirty encodes and uploads every node below n that has no content
// hash yet (the copy-on-write path of the current mutation), children
// before parents so interior encodings can name their children's
// hashes. Within one depth the nodes are independent, so each level is
// uploaded with bounded parallelism — a bulk PutBatch commit pipelines
// its sibling subtrees instead of paying one serial round trip per node.
func (s *Store) uploadDirty(ctx context.Context, root *node) error {
	var levels [][]*node
	var collect func(n *node, depth int)
	collect = func(n *node, depth int) {
		if n.hash != nil {
			return
		}
		for len(levels) <= depth {
			levels = append(levels, nil)
		}
		levels[depth] = append(levels[depth], n)
		if !n.leaf {
			for i := range n.children {
				if n.children[i].hash == nil {
					collect(n.children[i].child, depth+1)
				}
			}
		}
	}
	collect(root, 0)
	for d := len(levels) - 1; d >= 0; d-- {
		nodes := levels[d]
		if err := s.forEachParallel(len(nodes), func(k int) error {
			n := nodes[k]
			if !n.leaf {
				// Deeper levels uploaded first: every dirty child has its
				// hash by now.
				for i := range n.children {
					if c := &n.children[i]; c.hash == nil {
						c.hash = c.child.hash
					}
				}
			}
			enc := encodeNode(n)
			h := crypto.Hash(enc)
			nctx, hn := trace.Child(ctx, spanNode)
			defer hn.End()
			if err := s.blobs.PutBlob(nctx, h, enc); err != nil {
				return fmt.Errorf("kv: uploading tree node: %w", err)
			}
			s.stats.blobPut(len(enc))
			n.hash = h
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// Get reads a key of the own namespace. The own directory is
// authoritative (single-writer), so Get costs no register round trip;
// chunks not in the validating cache are fetched over the blob channel
// (in parallel) and hash-checked.
func (s *Store) Get(ctx context.Context, key string) ([]byte, error) {
	ctx, op := trace.Start(ctx, spanGet)
	defer op.End()
	s.mu.Lock()
	root := s.root
	s.mu.Unlock()
	e, ok := treeFind(root, key)
	if !ok {
		return nil, ErrNotFound
	}
	return s.assemble(ctx, e)
}

// GetFrom reads a key of client j's namespace with full authentication:
// one ReadX of j's register (fail-aware, fork-detecting), then the tree
// path and chunk fetches as needed — every fetched node hash-checked
// against the reference that named it before use. For the own namespace
// it is equivalent to Get.
func (s *Store) GetFrom(ctx context.Context, j int, key string) ([]byte, error) {
	if j == s.reg.ID() {
		return s.Get(ctx, key)
	}
	ctx, op := trace.Start(ctx, spanGetF)
	defer op.End()
	rr, ownerT, err := s.readRoot(ctx, j)
	if err != nil {
		return nil, err
	}
	if rr == nil {
		// Never-written register: the empty namespace (see the empty-read
		// semantics documented on ustor.Client.Read).
		return nil, ErrNotFound
	}
	e, err := s.remoteFind(ctx, rr, key)
	if err != nil {
		return nil, err
	}
	value, err := s.assemble(ctx, e)
	if err != nil {
		return nil, err
	}
	// Tagged with the timestamp of THIS read, never re-sampled (see readRoot).
	cv := cachedValue{value: append([]byte(nil), value...), digest: crypto.Hash(value), ownerT: ownerT}
	s.mu.Lock()
	s.values.put(valueKey{j, key}, cv, len(value))
	s.mu.Unlock()
	return value, nil
}

// ListFrom returns the sorted keys of client j's namespace, fetching and
// verifying every node of j's current directory tree (leaves are where
// the keys live, so a listing is necessarily O(n); the level-by-level
// fetches run with bounded parallelism).
func (s *Store) ListFrom(ctx context.Context, j int) ([]string, error) {
	if j == s.reg.ID() {
		return s.Keys(), nil
	}
	ctx, op := trace.Start(ctx, spanList)
	defer op.End()
	rr, _, err := s.readRoot(ctx, j)
	if err != nil {
		return nil, err
	}
	if rr == nil {
		return nil, nil
	}
	return s.remoteKeys(ctx, rr)
}

// CachedGetFrom is GetFrom with register-version-based caching: when the
// client's observed version of j's register is unchanged since the value
// was last read, the cached value is digest-checked and returned with NO
// server round trip. The client's knowledge of j advances whenever any
// of its operations observes a newer version of j (Algorithm 1's L
// walk), at which point the stale entry is invalidated and the next call
// falls through to a fresh GetFrom.
//
// The freshness contract is therefore weaker than GetFrom's: the value
// is as fresh as the client's last contact with the server, never
// fresher. Use GetFrom when read-your-peers'-writes matters.
func (s *Store) CachedGetFrom(ctx context.Context, j int, key string) ([]byte, error) {
	if j == s.reg.ID() {
		return s.Get(ctx, key)
	}
	// Sampled before taking s.mu: a register client may wait out an
	// in-flight operation here, which must not stall the store's other
	// cache lookups.
	ownerT := s.reg.ObservedTimestamp(j)
	k := valueKey{j, key}
	s.mu.Lock()
	if cv, ok := s.values.get(k); ok {
		if cv.ownerT == ownerT && bytes.Equal(crypto.Hash(cv.value), cv.digest) {
			s.stats.valueHits.Add(1)
			out := append([]byte(nil), cv.value...)
			s.mu.Unlock()
			return out, nil
		}
		s.values.remove(k) // version moved or digest check failed
	}
	s.mu.Unlock()
	return s.GetFrom(ctx, j, key)
}

// readRoot performs the authenticated register read of client j and
// returns j's current root record (nil for a never-written register)
// plus the owner timestamp this read observed (MEM[j].T, which
// Algorithm 1 line 51 pins to V[j] at the moment of the read).
func (s *Store) readRoot(ctx context.Context, j int) (*rootRecord, int64, error) {
	res, err := s.reg.ReadX(ctx, j)
	if err != nil {
		return nil, 0, fmt.Errorf("kv: reading register %d: %w", j, err)
	}
	s.stats.registerReads.Add(1)
	// WriterTimestamp is the owner timestamp of THIS read (line 51 pins
	// it to V[j] during the operation). Sampling ObservedTimestamp here
	// instead would race with concurrent operations on the shared
	// register client and could tag the value newer than it is.
	ownerT := res.WriterTimestamp
	if res.Value == nil {
		return nil, ownerT, nil
	}
	rr, err := decodeRoot(res.Value)
	if err != nil {
		return nil, 0, fmt.Errorf("kv: register %d: %w", j, err)
	}
	return rr, ownerT, nil
}

// fetchRoot fetches the root node rr names through get and checks its
// totals against the record, so the metadata a reader reports is pinned
// to the register-committed hash.
func fetchRoot(ctx context.Context, rr *rootRecord, get func(context.Context, []byte) (*node, error)) (*node, error) {
	n, err := get(ctx, rr.RootHash)
	if err != nil {
		return nil, err
	}
	if n.count() != rr.NumEntries || n.totalBytes() != rr.TotalBytes {
		return nil, errors.New("kv: directory metadata mismatch")
	}
	return n, nil
}

// remoteFind walks client j's committed tree from the root record to the
// leaf responsible for key, fetching each node by the hash its parent
// declared and validating the declared subtree facts at every step.
func (s *Store) remoteFind(ctx context.Context, rr *rootRecord, key string) (*entry, error) {
	if rr.NumEntries == 0 {
		return nil, ErrNotFound
	}
	n, err := fetchRoot(ctx, rr, s.getNode)
	if err != nil {
		return nil, err
	}
	for depth := uint32(1); ; depth++ {
		if n.leaf {
			if depth != rr.Height {
				return nil, errors.New("kv: tree shape mismatch")
			}
			i, ok := findEntry(n.entries, key)
			if !ok {
				return nil, ErrNotFound
			}
			return &n.entries[i], nil
		}
		if depth >= rr.Height {
			return nil, errors.New("kv: tree shape mismatch")
		}
		if key < n.children[0].minKey {
			// The committed separator keys prove absence without
			// descending further.
			return nil, ErrNotFound
		}
		c := &n.children[childIndex(n.children, key)]
		child, err := s.getNode(ctx, c.hash)
		if err != nil {
			return nil, err
		}
		if err := checkRef(child, c.minKey, c.count, c.bytes); err != nil {
			return nil, err
		}
		n = child
	}
}

// remoteKeys fetches and verifies client j's whole tree and returns the
// sorted key list.
func (s *Store) remoteKeys(ctx context.Context, rr *rootRecord) ([]string, error) {
	if rr.NumEntries == 0 {
		return nil, nil
	}
	root, err := fetchRoot(ctx, rr, s.getNode)
	if err != nil {
		return nil, err
	}
	leaves, err := s.walkLevels(rr, root, func(ref *childRef) (*node, error) { return s.getNode(ctx, ref.hash) })
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, rr.NumEntries)
	for _, n := range leaves {
		keys = treeKeys(n, keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return nil, errors.New("kv: directory keys not strictly sorted")
		}
	}
	return keys, nil
}

// loadTree fetches and verifies the owner's entire tree at Open, linking
// the nodes in memory so later operations run without node fetches. The
// structure checks are the ones every remote listing performs. Children
// are linked on COPIES of the decoded nodes: cached nodes are shared and
// immutable, the owner tree needs child pointers.
func (s *Store) loadTree(ctx context.Context, rr *rootRecord) (*node, error) {
	if rr.NumEntries == 0 {
		return nil, nil
	}
	root, err := fetchRoot(ctx, rr, s.loadNodeCopy)
	if err != nil {
		return nil, err
	}
	if _, err := s.walkLevels(rr, root, func(ref *childRef) (*node, error) {
		child, err := s.loadNodeCopy(ctx, ref.hash)
		ref.child = child // distinct parents' slices: no write overlap
		return child, err
	}); err != nil {
		return nil, err
	}
	return root, nil
}

// walkLevels descends from root, the node rr names, one level at a time —
// so fetch parallelism stays bounded at DefaultFetchParallelism, never
// compounding across depths — and returns the leaves in key order. fetch
// obtains the node a child reference names; walkLevels checks it against
// the reference, and every level's kind against rr.Height.
func (s *Store) walkLevels(rr *rootRecord, root *node, fetch func(ref *childRef) (*node, error)) ([]*node, error) {
	level := []*node{root}
	for depth := uint32(1); ; depth++ {
		leaves := level[0].leaf
		if leaves != (depth == rr.Height) {
			return nil, errors.New("kv: tree shape mismatch")
		}
		var refs []*childRef
		for _, n := range level {
			if n.leaf != leaves {
				return nil, errors.New("kv: tree shape mismatch")
			}
			for i := range n.children {
				refs = append(refs, &n.children[i])
			}
		}
		if leaves {
			return level, nil
		}
		next := make([]*node, len(refs))
		if err := s.forEachParallel(len(refs), func(k int) error {
			child, err := fetch(refs[k])
			if err != nil {
				return err
			}
			next[k] = child
			return checkRef(child, refs[k].minKey, refs[k].count, refs[k].bytes)
		}); err != nil {
			return nil, err
		}
		level = next
	}
}

// loadNodeCopy fetches a verified node and returns a private copy with
// its hash resolved, safe for the owner tree to link children into.
func (s *Store) loadNodeCopy(ctx context.Context, hash []byte) (*node, error) {
	dn, err := s.getNode(ctx, hash)
	if err != nil {
		return nil, err
	}
	n := &node{leaf: dn.leaf, entries: dn.entries, hash: append([]byte(nil), hash...)}
	if !dn.leaf {
		n.children = append([]childRef(nil), dn.children...)
	}
	return n, nil
}

// getNode returns the verified tree node stored under hash, serving from
// the node cache when possible. A fetched blob is hash-checked against
// the hash that named it (committed by the parent node or the root
// record) BEFORE decoding; cache entries were verified the same way at
// insertion and are immutable afterwards.
func (s *Store) getNode(ctx context.Context, hash []byte) (*node, error) {
	key := string(hash)
	s.mu.Lock()
	if n, ok := s.nodes.get(key); ok {
		s.stats.nodeHits.Add(1)
		s.mu.Unlock()
		return n, nil
	}
	s.mu.Unlock()
	ctx, h := trace.Child(ctx, spanNode)
	defer h.End()
	blob, err := s.blobs.GetBlob(ctx, hash)
	if err != nil {
		return nil, fmt.Errorf("kv: fetching tree node: %w", err)
	}
	if !bytes.Equal(crypto.Hash(blob), hash) {
		s.events.Record(obs.EventBlobTamper, s.reg.ID(), "",
			fmt.Sprintf("tree node %x fails its content hash", hash))
		return nil, errors.New("kv: tree node digest mismatch (tampered tree node)")
	}
	n, err := decodeNode(blob)
	if err != nil {
		return nil, err
	}
	s.stats.blobGet(len(blob))
	s.mu.Lock()
	s.nodes.put(key, n, len(blob))
	s.mu.Unlock()
	return n, nil
}

// assemble reconstructs an entry's value from its chunks, fetching what
// the validating cache does not hold with bounded parallelism and
// hash-verifying every chunk before use.
func (s *Store) assemble(ctx context.Context, e *entry) ([]byte, error) {
	if e.Size == 0 && len(e.Chunks) == 0 {
		return []byte{}, nil
	}
	chunks := make([][]byte, len(e.Chunks))
	var missing [][]byte            // distinct hashes to fetch, in order
	missingAt := map[string][]int{} // hash -> every chunk index using it
	s.mu.Lock()
	for i, h := range e.Chunks {
		if cached, ok := s.chunks.get(string(h)); ok {
			if bytes.Equal(crypto.Hash(cached), h) {
				chunks[i] = cached
				s.stats.chunkHits.Add(1)
				continue
			}
			// The validating part of the cache: a corrupted entry is
			// dropped and refetched rather than served.
			s.chunks.remove(string(h))
		}
		if _, dup := missingAt[string(h)]; !dup {
			missing = append(missing, h)
		}
		missingAt[string(h)] = append(missingAt[string(h)], i)
	}
	s.mu.Unlock()
	if err := s.forEachParallel(len(missing), func(k int) error {
		h := missing[k]
		cctx, hc := trace.Child(ctx, spanChunk)
		defer hc.End()
		fetched, err := s.blobs.GetBlob(cctx, h)
		if err != nil {
			return fmt.Errorf("kv: fetching chunk: %w", err)
		}
		if !bytes.Equal(crypto.Hash(fetched), h) {
			s.events.Record(obs.EventBlobTamper, s.reg.ID(), "",
				fmt.Sprintf("chunk %x fails its content hash", h))
			return errors.New("kv: chunk digest mismatch (tampered chunk)")
		}
		s.stats.blobGet(len(fetched))
		s.mu.Lock()
		s.chunks.put(string(h), append([]byte(nil), fetched...), len(fetched))
		s.mu.Unlock()
		for _, i := range missingAt[string(h)] {
			chunks[i] = fetched
		}
		return nil
	}); err != nil {
		return nil, err
	}
	value := make([]byte, 0, e.Size)
	for _, c := range chunks {
		value = append(value, c...)
	}
	if int64(len(value)) != e.Size {
		return nil, errors.New("kv: reassembled value size mismatch")
	}
	return value, nil
}

// forEachParallel runs f(0..n-1) with at most DefaultFetchParallelism
// invocations in flight and returns the first error (after letting started calls
// finish, so no goroutine outlives the operation).
func (s *Store) forEachParallel(n int, f func(i int) error) error {
	if n == 0 {
		return nil
	}
	par := min(DefaultFetchParallelism, n)
	if par <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	sem := make(chan struct{}, par)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem }()
			errs <- f(i)
		}(i)
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}
