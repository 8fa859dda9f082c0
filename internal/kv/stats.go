package kv

import "sync/atomic"

// statCounters is the store-local, lock-free form of Stats. Counters are
// atomics so hot read paths (which take s.mu only for cache maps) and
// Stats() snapshots never race.
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

func (c *statCounters) blobPut(n int) {
	c.blobPuts.Add(1)
	c.blobPutBytes.Add(int64(n))
}

func (c *statCounters) blobGet(n int) {
	c.blobGets.Add(1)
	c.blobGetBytes.Add(int64(n))
}
