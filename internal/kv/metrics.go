package kv

import (
	"sync/atomic"

	"faust/internal/obs"
)

// Process-wide KV traffic counters in the default obs registry. Every
// Store in the process reports here (the per-store view stays available
// via Store.Stats, which snapshots the store-local atomics).
var (
	kvRegisterOps = map[string]*obs.Counter{
		"read":  obs.Default().Counter("faust_kv_register_ops_total", "op", "read"),
		"write": obs.Default().Counter("faust_kv_register_ops_total", "op", "write"),
	}
	kvBlobOps = map[string]*obs.Counter{
		"put": obs.Default().Counter("faust_kv_blob_ops_total", "dir", "put"),
		"get": obs.Default().Counter("faust_kv_blob_ops_total", "dir", "get"),
	}
	kvBlobBytes = map[string]*obs.Counter{
		"put": obs.Default().Counter("faust_kv_blob_bytes_total", "dir", "put"),
		"get": obs.Default().Counter("faust_kv_blob_bytes_total", "dir", "get"),
	}
	kvCacheHits = map[string]*obs.Counter{
		"chunk": obs.Default().Counter("faust_kv_cache_hits_total", "cache", "chunk"),
		"node":  obs.Default().Counter("faust_kv_cache_hits_total", "cache", "node"),
		"value": obs.Default().Counter("faust_kv_cache_hits_total", "cache", "value"),
	}
)

func init() {
	r := obs.Default()
	r.Help("faust_kv_register_ops_total", "fail-aware register round trips issued by the KV layer")
	r.Help("faust_kv_blob_ops_total", "blob-channel transfers (chunks and tree nodes)")
	r.Help("faust_kv_blob_bytes_total", "blob payload bytes transferred")
	r.Help("faust_kv_cache_hits_total", "fetches served from a validating client cache")
}

// statCounters is the store-local, lock-free form of Stats. Counters are
// atomics so hot read paths (which take s.mu only for cache maps) and
// Stats() snapshots never race — previously several of these were plain
// int64 fields bumped under s.mu, and any future increment outside the
// lock was a data race waiting to happen.
type statCounters struct {
	registerReads  atomic.Int64
	registerWrites atomic.Int64
	blobPuts       atomic.Int64
	blobGets       atomic.Int64
	blobPutBytes   atomic.Int64
	blobGetBytes   atomic.Int64
	chunkHits      atomic.Int64
	nodeHits       atomic.Int64
	valueHits      atomic.Int64
}

func (c *statCounters) snapshot() Stats {
	return Stats{
		RegisterReads:  c.registerReads.Load(),
		RegisterWrites: c.registerWrites.Load(),
		BlobPuts:       c.blobPuts.Load(),
		BlobGets:       c.blobGets.Load(),
		BlobPutBytes:   c.blobPutBytes.Load(),
		BlobGetBytes:   c.blobGetBytes.Load(),
		ChunkCacheHits: c.chunkHits.Load(),
		NodeCacheHits:  c.nodeHits.Load(),
		ValueCacheHits: c.valueHits.Load(),
	}
}

// The stat* helpers bump the store-local atomic and mirror into the
// process-wide obs registry. Safe with or without s.mu held.

func (s *Store) statRegisterRead() {
	s.stats.registerReads.Add(1)
	kvRegisterOps["read"].Inc()
}

func (s *Store) statRegisterWrite() {
	s.stats.registerWrites.Add(1)
	kvRegisterOps["write"].Inc()
}

func (s *Store) statBlobPut(n int) {
	s.stats.blobPuts.Add(1)
	s.stats.blobPutBytes.Add(int64(n))
	kvBlobOps["put"].Inc()
	kvBlobBytes["put"].Add(int64(n))
}

func (s *Store) statBlobGet(n int) {
	s.stats.blobGets.Add(1)
	s.stats.blobGetBytes.Add(int64(n))
	kvBlobOps["get"].Inc()
	kvBlobBytes["get"].Add(int64(n))
}

func (s *Store) statChunkCacheHit() {
	s.stats.chunkHits.Add(1)
	kvCacheHits["chunk"].Inc()
}

func (s *Store) statNodeCacheHit() {
	s.stats.nodeHits.Add(1)
	kvCacheHits["node"].Inc()
}

func (s *Store) statValueCacheHit() {
	s.stats.valueHits.Add(1)
	kvCacheHits["value"].Inc()
}
