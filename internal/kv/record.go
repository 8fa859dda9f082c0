package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"

	"faust/internal/crypto"
)

// The on-register and on-blob encodings of the KV layer. Same
// conventions as package wire: big-endian fixed-width integers, u32
// length prefixes, sticky-error reader. Limits keep a malicious blob
// from forcing huge allocations before validation fails.

const (
	rootMagic = "FKVR2"

	// MaxKeyLen bounds a key's length in bytes.
	MaxKeyLen = 1 << 10
	// maxChunksPerValue bounds a single value's chunk list.
	maxChunksPerValue = 1 << 16
	// maxNodeEntries bounds the decoded size of a single tree node
	// (leaf entries or interior children) regardless of the configured
	// fanout.
	maxNodeEntries = 1 << 21
	// maxTreeHeight bounds the tree depth a root record may declare; far
	// above anything a real namespace produces, it caps the work a
	// malicious record can demand before verification fails.
	maxTreeHeight = 64
)

var errCodec = errors.New("kv: malformed encoding")

// entry is one key → value record. Chunks holds the content hashes of
// the value's chunks in order; a zero-length value has no chunks.
// Entries are immutable once placed in a tree node: copy-on-write
// mutations build new entry slices and never modify an existing entry.
type entry struct {
	Key    string
	Size   int64
	Chunks [][]byte
}

// EncodedEntrySize returns the encoded size in bytes of one leaf entry
// for a key of the given length and chunk count. It lets applications
// estimate node sizes and lets the benchmarks report exact per-entry
// costs.
func EncodedEntrySize(keyLen, nchunks int) int {
	return 4 + keyLen + 8 + 4 + nchunks*crypto.HashSize
}

// encodedEntrySize is the internal form taking the entry itself.
func encodedEntrySize(e *entry) int {
	return EncodedEntrySize(len(e.Key), len(e.Chunks))
}

// appendEntry renders one leaf entry.
func appendEntry(buf []byte, e *entry) []byte {
	var tmp [8]byte
	binary.BigEndian.PutUint32(tmp[:4], uint32(len(e.Key)))
	buf = append(buf, tmp[:4]...)
	buf = append(buf, e.Key...)
	binary.BigEndian.PutUint64(tmp[:], uint64(e.Size))
	buf = append(buf, tmp[:]...)
	binary.BigEndian.PutUint32(tmp[:4], uint32(len(e.Chunks)))
	buf = append(buf, tmp[:4]...)
	for _, h := range e.Chunks {
		buf = append(buf, h...)
	}
	return buf
}

// readEntry parses one leaf entry, validating the shape constraints
// shared with Put (key length, chunk count, size/chunk consistency). The
// chunk headers are carved from arena, the node's one header allocation
// (sized by decodeNode); the key and hashes alias the blob.
func readEntry(r *reader, arena *[][]byte) (entry, error) {
	klen := r.u32()
	if r.err != nil || klen == 0 || klen > MaxKeyLen {
		return entry{}, fmt.Errorf("%w: key length", errCodec)
	}
	key := r.str(int(klen))
	size := r.i64()
	nchunks := r.u32()
	if r.err != nil || size < 0 || nchunks > maxChunksPerValue {
		return entry{}, fmt.Errorf("%w: entry shape", errCodec)
	}
	if (size == 0) != (nchunks == 0) {
		return entry{}, fmt.Errorf("%w: chunk count %d inconsistent with size %d", errCodec, nchunks, size)
	}
	if int(nchunks) > len(r.data)/crypto.HashSize {
		return entry{}, fmt.Errorf("%w: chunk list longer than the blob", errCodec)
	}
	// The arena holds every hash a well-formed blob can carry, so this
	// never grows it; the cap keeps one entry's list off its neighbour's.
	start := len(*arena)
	for j := uint32(0); j < nchunks; j++ {
		*arena = append(*arena, r.take(crypto.HashSize))
	}
	var chunks [][]byte
	if nchunks > 0 {
		chunks = (*arena)[start:len(*arena):len(*arena)]
	}
	return entry{Key: key, Size: size, Chunks: chunks}, nil
}

// reader decodes with sticky error handling, mirroring wire.reader.
type reader struct {
	data []byte
	err  error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = errCodec
	}
}

func (r *reader) u32() uint32 {
	if r.err != nil || len(r.data) < 4 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.data)
	r.data = r.data[4:]
	return v
}

func (r *reader) i64() int64 {
	if r.err != nil || len(r.data) < 8 {
		r.fail()
		return 0
	}
	v := int64(binary.BigEndian.Uint64(r.data))
	r.data = r.data[8:]
	return v
}

// take returns the next n bytes as a capacity-capped sub-slice of the
// blob: no allocation, no copy (see decodeNode for the ownership rule).
//
//faustlint:hotpath
func (r *reader) take(n int) []byte {
	if r.err != nil || n < 0 || len(r.data) < n {
		r.fail()
		return nil
	}
	out := r.data[:n:n]
	r.data = r.data[n:]
	return out
}

// str is take for keys: a string header over the blob's bytes. Sound
// because a decoded blob is never written again (decodeNode's contract),
// which is exactly the immutability a Go string promises.
//
//faustlint:hotpath
func (r *reader) str(n int) string {
	b := r.take(n)
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// rootRecord is the value the owner writes into its fail-aware register:
// everything a reader needs to authenticate the directory tree. RootHash
// is the content hash of the root tree node (emptyTreeRoot for an empty
// namespace), Height the number of tree levels, Gen a monotone mutation
// counter, and the counts are totals that every read validates against
// the root node it fetches.
type rootRecord struct {
	Gen        uint64
	NumEntries uint32
	TotalBytes int64
	Height     uint32
	RootHash   []byte
}

// rootRecordSize is the exact encoded size of a root record.
const rootRecordSize = len(rootMagic) + 8 + 4 + 8 + 4 + crypto.HashSize

// emptyTreeRoot is the fixed, domain-separated root hash of the empty
// namespace. No blob lives under it; readers recognize it directly.
var emptyTreeRoot = crypto.Hash([]byte("faust-kv-empty-directory"))

// encodeRoot renders the register value.
func encodeRoot(rr *rootRecord) []byte {
	buf := make([]byte, 0, rootRecordSize)
	var tmp [8]byte
	buf = append(buf, rootMagic...)
	binary.BigEndian.PutUint64(tmp[:], rr.Gen)
	buf = append(buf, tmp[:]...)
	binary.BigEndian.PutUint32(tmp[:4], rr.NumEntries)
	buf = append(buf, tmp[:4]...)
	binary.BigEndian.PutUint64(tmp[:], uint64(rr.TotalBytes))
	buf = append(buf, tmp[:]...)
	binary.BigEndian.PutUint32(tmp[:4], rr.Height)
	buf = append(buf, tmp[:4]...)
	buf = append(buf, rr.RootHash...)
	return buf
}

// decodeRoot parses a register value as a KV root record and validates
// its internal consistency (an empty namespace must carry the empty
// root and zero height; a non-empty one a plausible height). The
// record's RootHash aliases data; the caller hands over a buffer it
// never reuses (a ReadX result is the reader's own copy).
func decodeRoot(data []byte) (*rootRecord, error) {
	if len(data) != rootRecordSize || string(data[:len(rootMagic)]) != rootMagic {
		return nil, fmt.Errorf("%w: register does not hold a KV root record", errCodec)
	}
	r := &reader{data: data[len(rootMagic):]}
	rr := &rootRecord{}
	rr.Gen = uint64(r.i64())
	rr.NumEntries = r.u32()
	rr.TotalBytes = r.i64()
	rr.Height = r.u32()
	rr.RootHash = r.take(crypto.HashSize)
	if r.err != nil {
		return nil, r.err
	}
	if rr.TotalBytes < 0 {
		return nil, fmt.Errorf("%w: negative total bytes", errCodec)
	}
	if rr.NumEntries == 0 {
		if rr.Height != 0 || rr.TotalBytes != 0 || !bytes.Equal(rr.RootHash, emptyTreeRoot) {
			return nil, fmt.Errorf("%w: inconsistent empty-namespace root record", errCodec)
		}
	} else if rr.Height == 0 || rr.Height > maxTreeHeight {
		return nil, fmt.Errorf("%w: tree height %d out of range", errCodec, rr.Height)
	}
	return rr, nil
}

// validKey checks the key constraints: non-empty, at most MaxKeyLen
// bytes.
func validKey(key string) error {
	if len(key) == 0 {
		return errors.New("kv: empty key")
	}
	if len(key) > MaxKeyLen {
		return fmt.Errorf("kv: key of %d bytes exceeds limit %d", len(key), MaxKeyLen)
	}
	return nil
}
