// Package workload generates deterministic, seeded operation streams for
// tests and benchmarks: read/write mixes, Zipf-skewed register selection
// and sized unique values. Written values are globally unique, which the
// consistency checkers rely on (Section 2 of the paper makes the same
// assumption).
package workload

import (
	"fmt"
	"math/rand"
)

// Op is one generated operation.
type Op struct {
	Client  int
	IsWrite bool
	Reg     int    // register to read; writes always target the client's own
	Value   []byte // written value; nil for reads
}

// Config parameterizes a workload.
type Config struct {
	// ReadFraction is the probability of generating a read (0..1).
	ReadFraction float64
	// ValueSize is the size in bytes of written values (minimum large
	// enough for the unique prefix; small values are padded).
	ValueSize int
	// ZipfS skews register selection for reads; 0 selects uniformly.
	// Values > 1 make low-index registers proportionally hotter.
	ZipfS float64
	// Seed makes the workload reproducible.
	Seed int64
}

// DefaultConfig is a 50/50 mix of reads and writes over uniformly chosen
// registers with 64-byte values.
func DefaultConfig() Config {
	return Config{ReadFraction: 0.5, ValueSize: 64, Seed: 1}
}

// Workload owns one deterministic stream per client.
type Workload struct {
	n       int
	cfg     Config
	streams []*Stream
}

// New creates a workload for n clients.
func New(n int, cfg Config) *Workload {
	w := &Workload{n: n, cfg: cfg, streams: make([]*Stream, n)}
	for i := 0; i < n; i++ {
		w.streams[i] = newStream(i, n, cfg)
	}
	return w
}

// Stream returns client i's operation stream. Streams are independent:
// each may be driven from its own goroutine.
func (w *Workload) Stream(i int) *Stream { return w.streams[i] }

// Stream generates operations for one client.
type Stream struct {
	client int
	n      int
	cfg    Config
	rng    *rand.Rand
	zipf   *rand.Zipf
	seq    int
}

func newStream(client, n int, cfg Config) *Stream {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(client)*7919))
	s := &Stream{client: client, n: n, cfg: cfg, rng: rng}
	if cfg.ZipfS > 1 {
		s.zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(n-1))
	}
	return s
}

// Next produces the client's next operation.
func (s *Stream) Next() Op {
	if s.rng.Float64() < s.cfg.ReadFraction {
		return Op{Client: s.client, Reg: s.pickRegister()}
	}
	s.seq++
	return Op{
		Client:  s.client,
		IsWrite: true,
		Reg:     s.client,
		Value:   s.value(),
	}
}

// NextWrite forces a write operation.
func (s *Stream) NextWrite() Op {
	s.seq++
	return Op{Client: s.client, IsWrite: true, Reg: s.client, Value: s.value()}
}

// NextRead forces a read operation.
func (s *Stream) NextRead() Op {
	return Op{Client: s.client, Reg: s.pickRegister()}
}

func (s *Stream) pickRegister() int {
	if s.zipf != nil {
		return int(s.zipf.Uint64())
	}
	return s.rng.Intn(s.n)
}

// value builds a unique value of the configured size. The unique prefix
// "c<client>-<seq>|" guarantees global uniqueness; the rest is padding.
func (s *Stream) value() []byte {
	prefix := fmt.Sprintf("c%d-%d|", s.client, s.seq)
	size := s.cfg.ValueSize
	if size < len(prefix) {
		size = len(prefix)
	}
	out := make([]byte, size)
	copy(out, prefix)
	for i := len(prefix); i < size; i++ {
		out[i] = byte('a' + (i % 26))
	}
	return out
}

// KV workload: operation streams against the key-value layer (package
// kv) rather than raw registers. Each client owns a namespace of
// cfg.Keys keys; the mix covers puts, gets of the own namespace,
// authenticated cross-client gets and deletes. Written values carry the
// same globally unique prefix as register workloads.

// KVOpKind tags a generated KV operation.
type KVOpKind uint8

// KV operation kinds. Values start at one so the zero value is invalid.
const (
	KVGet KVOpKind = iota + 1
	KVPut
	KVDelete
	KVGetFrom
)

// String names the kind.
func (k KVOpKind) String() string {
	switch k {
	case KVGet:
		return "GET"
	case KVPut:
		return "PUT"
	case KVDelete:
		return "DELETE"
	case KVGetFrom:
		return "GETFROM"
	default:
		return fmt.Sprintf("KVOpKind(%d)", uint8(k))
	}
}

// KVOp is one generated key-value operation.
type KVOp struct {
	Client int
	Kind   KVOpKind
	Owner  int // namespace owner; == Client except for KVGetFrom
	Key    string
	Value  []byte // nil unless Kind == KVPut
}

// KVConfig parameterizes a KV workload.
type KVConfig struct {
	// Keys is the number of distinct keys per client namespace.
	Keys int
	// ValueSize is the size in bytes of put values.
	ValueSize int
	// ReadFraction is the probability of a get (0..1).
	ReadFraction float64
	// CrossReadFraction is the probability that a get targets another
	// client's namespace (KVGetFrom) instead of the own one.
	CrossReadFraction float64
	// DeleteFraction is the probability of a delete (carved out of the
	// non-read remainder).
	DeleteFraction float64
	// ZipfS skews key selection; 0 selects uniformly, values > 1 make
	// low-index keys proportionally hotter.
	ZipfS float64
	// Seed makes the workload reproducible.
	Seed int64
}

// DefaultKVConfig is a 70% read mix over 64 keys with 256-byte values,
// a quarter of reads crossing namespaces and rare deletes.
func DefaultKVConfig() KVConfig {
	return KVConfig{
		Keys:              64,
		ValueSize:         256,
		ReadFraction:      0.7,
		CrossReadFraction: 0.25,
		DeleteFraction:    0.05,
		Seed:              1,
	}
}

// KVWorkload owns one deterministic KV stream per client.
type KVWorkload struct {
	n       int
	streams []*KVStream
}

// NewKV creates a KV workload for n clients.
func NewKV(n int, cfg KVConfig) *KVWorkload {
	if cfg.Keys <= 0 {
		cfg.Keys = 1
	}
	w := &KVWorkload{n: n, streams: make([]*KVStream, n)}
	for i := 0; i < n; i++ {
		w.streams[i] = newKVStream(i, n, cfg)
	}
	return w
}

// Stream returns client i's KV stream. Streams are independent; each may
// be driven from its own goroutine.
func (w *KVWorkload) Stream(i int) *KVStream { return w.streams[i] }

// KVStream generates KV operations for one client.
type KVStream struct {
	client int
	n      int
	cfg    KVConfig
	rng    *rand.Rand
	zipf   *rand.Zipf
	seq    int
}

func newKVStream(client, n int, cfg KVConfig) *KVStream {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(client)*104729))
	s := &KVStream{client: client, n: n, cfg: cfg, rng: rng}
	if cfg.ZipfS > 1 && cfg.Keys > 1 {
		s.zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Keys-1))
	}
	return s
}

// Next produces the client's next KV operation.
func (s *KVStream) Next() KVOp {
	r := s.rng.Float64()
	key := s.key()
	switch {
	case r < s.cfg.ReadFraction:
		if s.n > 1 && s.rng.Float64() < s.cfg.CrossReadFraction {
			owner := s.rng.Intn(s.n - 1)
			if owner >= s.client {
				owner++
			}
			return KVOp{Client: s.client, Kind: KVGetFrom, Owner: owner, Key: key}
		}
		return KVOp{Client: s.client, Kind: KVGet, Owner: s.client, Key: key}
	case r < s.cfg.ReadFraction+s.cfg.DeleteFraction:
		return KVOp{Client: s.client, Kind: KVDelete, Owner: s.client, Key: key}
	default:
		return s.nextPut(key)
	}
}

// NextPut forces a put of the next unique value under a generated key.
func (s *KVStream) NextPut() KVOp { return s.nextPut(s.key()) }

func (s *KVStream) nextPut(key string) KVOp {
	s.seq++
	return KVOp{Client: s.client, Kind: KVPut, Owner: s.client, Key: key, Value: s.kvValue()}
}

// KeyName returns the canonical zero-padded key for index i. KV streams
// generate keys through it, and benchmarks/prefill helpers that address
// the same namespaces share it so a prefilled key space and a generated
// stream line up exactly.
func KeyName(i int) string { return fmt.Sprintf("key-%06d", i) }

// key picks the target key, Zipf-skewed when configured. Keys are
// zero-padded so every namespace lists in deterministic order.
func (s *KVStream) key() string {
	var idx int
	if s.zipf != nil {
		idx = int(s.zipf.Uint64())
	} else {
		idx = s.rng.Intn(s.cfg.Keys)
	}
	return KeyName(idx)
}

// kvValue builds a globally unique value of the configured size.
func (s *KVStream) kvValue() []byte {
	prefix := fmt.Sprintf("c%d-%d|", s.client, s.seq)
	size := s.cfg.ValueSize
	if size < len(prefix) {
		size = len(prefix)
	}
	out := make([]byte, size)
	copy(out, prefix)
	for i := len(prefix); i < size; i++ {
		out[i] = byte('a' + (i % 26))
	}
	return out
}
