package main

import (
	"sort"

	"faust/internal/kv"
)

// counterSnap is a plain copy of counters at one instant; per-layer
// numbers are differences of two of them so warm-up traffic is excluded.
type counterSnap struct {
	submits, commits, replies    int64
	wireBytes, replyBytes        int64
	walBytes                     int64
	snapBytes, flushes           int64
	blobBytes, chanCalls, chanNs int64
	batches                      int
	kv                           kv.Stats
	kvFound                      int64
	signs, verifies              int64
}

func (c *counters) snap() counterSnap {
	c.mu.Lock()
	batches := len(c.batchSizes)
	c.mu.Unlock()
	signs, verifies := sigCounts()
	return counterSnap{
		submits: c.submits.Load(), commits: c.commits.Load(), replies: c.replies.Load(),
		wireBytes: c.wireBytes.Load(), replyBytes: c.replyBytes.Load(),
		walBytes:  c.walBytes.Load(),
		snapBytes: c.snapBytes.Load(), flushes: c.flushes.Load(),
		blobBytes: c.blobBytes.Load(), chanCalls: c.chanCalls.Load(), chanNs: c.chanNs.Load(),
		batches: batches, signs: signs, verifies: verifies,
	}
}

func (e *env) snapCounters() counterSnap {
	s := e.kit.cnt.snap()
	if e.kv != nil {
		s.kv = e.kv.stats()
		s.kvFound = e.kv.foundGets.Load()
	}
	return s
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func usMean(totalNs, n int64) float64 { return ratio(float64(totalNs)/1e3, float64(n)) }

func durationsUS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / 1e3
	}
	sort.Float64s(out)
	return out
}

// tracedPhase is everything the traced part of a run produced.
type tracedPhase struct {
	e          *env
	load       loadResult
	spans      [numSpanKinds][]span
	before     counterSnap
	after      counterSnap
	proc       procSnap // delta over the phase
	lagNs      []float64
	replay     replayResult
	reopen     reopenResult
	batchSizes []int
}

// layerMetrics turns the traced phase into the per-layer numbers. Every
// time is a mean per operation in microseconds unless its name says p50
// or p99, so that the layer self-times add up to mean op latency.
func layerMetrics(p tracedPhase) map[string]float64 {
	m := map[string]float64{}
	d := p.after
	b := p.before
	loadOps := float64(len(p.load.samples))
	regOps := float64(len(p.spans[spOp]))

	// ---- the register path: op = client + wait + apply + append + flush + store self ----
	send := indexByKey(p.spans[spSend])
	rpc := indexByKey(p.spans[spRPC])
	handler := indexByKey(p.spans[spHandler])
	bflush := indexByKey(p.spans[spBatchFlush])
	apply := indexByKey(p.spans[spApply])
	appendS := indexByKey(p.spans[spAppend])
	parents := append(append([]span(nil), p.spans[spHandler]...), p.spans[spBatchFlush]...)
	flushIn := containedDur(parents, p.spans[spFlush])

	var allNs, joinedNs float64
	var nJoined int64
	var sum struct{ client, wait, send, apply, append, flush, self int64 }
	for _, op := range p.spans[spOp] {
		allNs += float64(op.dur())
		k := op.opKey()
		sd, ok1 := send[k]
		rp, ok2 := rpc[k]
		h, ok3 := handler[k]
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		serverEnd, serverNs, gap := h.end, h.dur(), int64(0)
		if bf, ok := bflush[k]; ok {
			serverEnd, gap = bf.end, bf.start-h.end
			serverNs += bf.dur()
		}
		client := (sd.start - op.start) + (op.end - rp.end)
		wait := (h.start - sd.start) + (rp.end - serverEnd) + gap
		applyNs := h.dur() // a volatile core is called directly: its handler is the apply
		var appendNs, flushNs, selfNs int64
		if p.e.wal != nil {
			// Under store.Persistent the handler must contain an apply and an
			// append; without them their time would pass for store.self.
			ap, ok4 := apply[k]
			as, ok5 := appendS[k]
			if !ok4 || !ok5 {
				continue
			}
			applyNs, appendNs, flushNs = ap.dur(), as.dur(), flushIn[k]
			selfNs = serverNs - applyNs - appendNs - flushNs
		}
		nJoined++
		sum.client += client
		sum.wait += wait
		sum.send += sd.dur()
		sum.apply += applyNs
		sum.append += appendNs
		sum.flush += flushNs
		sum.self += selfNs
		joinedNs += float64(client + wait + applyNs + appendNs + flushNs + selfNs)
	}
	m["ustor.client_us"] = usMean(sum.client, nJoined)
	m["transport.wait_us"] = usMean(sum.wait, nJoined)
	m["transport.send_us"] = usMean(sum.send, nJoined)
	m["ustor.apply_us"] = usMean(sum.apply, nJoined)
	m["store.append_us"] = usMean(sum.append, nJoined)
	m["store.flush_wait_us"] = usMean(sum.flush, nJoined)
	m["store.self_us"] = usMean(sum.self, nJoined)
	// The parts of a joined operation add up to its latency by construction
	// (wait and self are what is left between two measured boundaries), so
	// what can go unattributed is the operations that could not be joined.
	m["bench.unattributed_pct"] = 100 * ratio(allNs-joinedNs, allNs)

	rpcUS := durationsUS(p.spans[spRPC])
	m["transport.rpc_p50_us"] = quantileSorted(rpcUS, 0.50)
	m["transport.rpc_p99_us"] = quantileSorted(rpcUS, pickTail(len(rpcUS), 0.99))
	var commitNs int64
	for _, s := range p.spans[spCommit] {
		commitNs += s.dur()
	}
	m["ustor.commit_us"] = usMean(commitNs, int64(len(p.spans[spCommit])))
	m["ustor.msgs_per_op"] = ratio(float64(d.submits-b.submits+d.replies-b.replies+d.commits-b.commits), regOps)
	m["crypto.signs_per_op"] = ratio(float64(d.signs-b.signs), regOps)
	m["crypto.verifies_per_op"] = ratio(float64(d.verifies-b.verifies), regOps)
	m["wire.bytes_per_op"] = ratio(float64(d.wireBytes-b.wireBytes), regOps)
	if p.e.n == 16 {
		m["wire.reply_bytes.n16"] = ratio(float64(d.replyBytes-b.replyBytes), float64(d.replies-b.replies))
	}

	sizes := make([]float64, len(p.batchSizes))
	for i, n := range p.batchSizes {
		sizes[i] = float64(n)
	}
	sort.Float64s(sizes)
	m["transport.batch_size_mean"] = mean(sizes)
	m["transport.batch_size_p99"] = quantileSorted(sizes, pickTail(len(sizes), 0.99))
	m["transport.blob_rpc_us"] = usMean(d.chanNs-b.chanNs, d.chanCalls-b.chanCalls)

	// ---- store ----
	flushUS := durationsUS(p.spans[spFlush])
	m["store.flush_p50_us"] = quantileSorted(flushUS, 0.50)
	m["store.flush_p99_us"] = quantileSorted(flushUS, pickTail(len(flushUS), 0.99))
	m["store.flushes_per_op"] = ratio(float64(d.flushes-b.flushes), regOps)
	m["store.wal_bytes_per_op"] = ratio(float64(d.walBytes-b.walBytes), regOps)
	m["store.snapshot_ms"] = mean(durationsUS(p.spans[spSnapshot])) / 1e3
	m["store.snapshots"] = float64(len(p.spans[spSnapshot]))
	if p.reopen.replayed > 0 {
		m["store.recover_ms_per_krec"] = float64(p.reopen.took.Microseconds()) / 1e3 / (float64(p.reopen.replayed) / 1e3)
	}
	m["store.blob_put_us"] = p.replay.blobPutUS
	m["store.blob_get_us"] = p.replay.blobGetUS
	stored := float64(d.walBytes - b.walBytes + d.snapBytes - b.snapBytes + d.blobBytes - b.blobBytes)
	m["e2e.write_amp"] = ratio(stored, float64(p.load.payloadBytes))

	// ---- faustproto ----
	if p.e.wl == wlFaustMem {
		m["faustproto.dummy_reads_per_s"] = ratio(float64(d.submits-b.submits)-loadOps, p.load.seconds())
		lag := sortedCopy(p.lagNs)
		m["faustproto.stable_lag_p99_us"] = quantileSorted(lag, pickTail(len(lag), 0.99)) / 1e3
	}

	// ---- kv: op = register + blob + self ----
	if p.e.kv != nil {
		kvLayer(m, p)
	}

	// ---- crypto and wire, by replay ----
	m["crypto.sign_us"] = p.replay.signUS
	m["crypto.verify_us"] = p.replay.verifyUS
	m["crypto.verify_batch_us_per_sig"] = p.replay.verifyBatchUS
	m["crypto.hash_us_per_kib"] = p.replay.hashUSPerKiB
	if p.e.wl == wlRegTCPWAL {
		// Only the TCP link encodes and decodes; the memory network passes
		// pointers, so codec time there is zero by construction.
		m["wire.encode_us"] = p.replay.encodeUS
		m["wire.decode_us"] = p.replay.decodeUS
	}

	// ---- process ----
	m["proc.cpu_us_per_op"] = ratio(float64(p.proc.cpuNs)/1e3, loadOps)
	m["proc.alloc_bytes_per_op"] = ratio(float64(p.proc.allocBytes), loadOps)
	m["proc.gc_pause_ms"] = float64(p.proc.gcPauseNs) / 1e6
	return m
}

func kvLayer(m map[string]float64, p tracedPhase) {
	regBy := map[opKey][]span{}
	for _, s := range p.spans[spKVReg] {
		regBy[s.opKey()] = append(regBy[s.opKey()], s)
	}
	blobBy := map[opKey][]span{}
	for _, s := range p.spans[spKVBlob] {
		blobBy[s.opKey()] = append(blobBy[s.opKey()], s)
	}
	type acc struct{ n, reg, blob, self, blobPuts, blobGets int64 }
	var by [numClasses]acc
	for _, op := range p.spans[spKVOp] {
		a := &by[op.class]
		var regNs int64
		for _, r := range regBy[op.opKey()] {
			regNs += r.dur()
		}
		blobs := blobBy[op.opKey()]
		blobNs := unionDur(blobs)
		a.n++
		a.reg += regNs
		a.blob += blobNs
		a.self += op.dur() - regNs - blobNs
		for _, b := range blobs {
			if b.class == classWrite {
				a.blobPuts++
			} else {
				a.blobGets++
			}
		}
	}
	put, get := by[classWrite], by[classRead]
	m["kv.put.register_us"] = usMean(put.reg, put.n)
	m["kv.put.blob_us"] = usMean(put.blob, put.n)
	m["kv.put.self_us"] = usMean(put.self, put.n)
	m["kv.getfrom.register_us"] = usMean(get.reg, get.n)
	m["kv.getfrom.blob_us"] = usMean(get.blob, get.n)
	m["kv.getfrom.self_us"] = usMean(get.self, get.n)
	m["kv.blob_puts_per_put"] = ratio(float64(put.blobPuts), float64(put.n))
	m["kv.blob_gets_per_getfrom"] = ratio(float64(get.blobGets), float64(get.n))

	d, b := p.after, p.before
	found := float64(d.kvFound - b.kvFound)
	chunkHits := float64(d.kv.ChunkCacheHits - b.kv.ChunkCacheHits)
	nodeHits := float64(d.kv.NodeCacheHits - b.kv.NodeCacheHits)
	// Each found get assembles one chunk, so chunk fetches are the found
	// gets the cache did not serve, and the remaining blob gets are nodes.
	nodeFetches := float64(d.kv.BlobGets-b.kv.BlobGets) - (found - chunkHits)
	m["kv.chunk_cache_hit_ratio"] = ratio(chunkHits, found)
	m["kv.node_cache_hit_ratio"] = ratio(nodeHits, nodeHits+nodeFetches)
	m["kv.blob_bytes_per_user_byte"] = ratio(float64(d.kv.BlobPutBytes-b.kv.BlobPutBytes), float64(p.load.payloadBytes))
}
