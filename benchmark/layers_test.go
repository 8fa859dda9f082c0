package main

import "testing"

// TestBlobCallsAreCountedByDirection: a Put that misses the node cache
// fetches tree nodes before it uploads new ones. Those fetches are not
// uploads, or kv.blob_puts_per_put would move with the cache hit ratio.
func TestBlobCallsAreCountedByDirection(t *testing.T) {
	var p tracedPhase
	put := opKey{client: 0, key: 1}
	get := opKey{client: 1, key: 1}
	p.spans[spKVOp] = []span{
		{kind: spKVOp, class: classWrite, client: put.client, key: put.key, start: 0, end: 100},
		{kind: spKVOp, class: classRead, client: get.client, key: get.key, start: 0, end: 100},
	}
	blob := func(k opKey, class opClass, start int64) span {
		return span{kind: spKVBlob, class: class, client: k.client, key: k.key, start: start, end: start + 5}
	}
	p.spans[spKVBlob] = []span{
		blob(put, classRead, 10), blob(put, classRead, 20), blob(put, classRead, 30),
		blob(put, classWrite, 40), blob(put, classWrite, 50),
		blob(get, classRead, 10),
	}
	m := map[string]float64{}
	kvLayer(m, p)
	if got := m["kv.blob_puts_per_put"]; got != 2 {
		t.Errorf("kv.blob_puts_per_put = %v, want 2: the put's three node fetches are not uploads", got)
	}
	if got := m["kv.blob_gets_per_getfrom"]; got != 1 {
		t.Errorf("kv.blob_gets_per_getfrom = %v, want 1", got)
	}
	if got := m["kv.put.blob_us"]; got != 0.025 {
		t.Errorf("kv.put.blob_us = %v, want 0.025: both directions are time the put spent on blobs", got)
	}
}

// TestUnattributedSeesAMissingDecorator: the parts of a joined operation
// add up by construction, so bench.unattributed_pct can only report
// operations that could not be joined. Under a WAL that includes one whose
// handler shows no apply or no append: without the check their time would
// silently pass for store.self_us.
func TestUnattributedSeesAMissingDecorator(t *testing.T) {
	chain := func(withApply bool) tracedPhase {
		p := tracedPhase{e: &env{n: 2, wl: wlRegSatWAL, wal: &walEnv{}}}
		at := func(kind spanKind, start, end int64) {
			p.spans[kind] = append(p.spans[kind], span{kind: kind, client: 0, key: 7, start: start, end: end})
		}
		at(spOp, 0, 100)
		at(spSend, 10, 12)
		at(spRPC, 10, 90)
		at(spHandler, 30, 70)
		at(spAppend, 50, 60)
		if withApply {
			at(spApply, 35, 50)
		}
		return p
	}
	m := layerMetrics(chain(true))
	if got := m["bench.unattributed_pct"]; got != 0 {
		t.Errorf("complete chain: bench.unattributed_pct = %v, want 0", got)
	}
	// op 100 = client 20 + wait 40 + apply 15 + append 10 + store self 15
	for name, want := range map[string]float64{"ustor.client_us": 0.020, "transport.wait_us": 0.040,
		"ustor.apply_us": 0.015, "store.append_us": 0.010, "store.self_us": 0.015} {
		if got := m[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	m = layerMetrics(chain(false))
	if got := m["bench.unattributed_pct"]; got != 100 {
		t.Errorf("no apply span under a WAL: bench.unattributed_pct = %v, want 100", got)
	}
}
