package transport

import "faust/internal/obs"

// Metric handles for the transport hot paths, resolved once at package
// init and touched lock-free afterwards. Everything reports into the
// process-wide default registry, which cmd/faust-server exposes via
// -metrics-addr.
var (
	// Post-handshake connections currently registered, by connection kind
	// (protocol connections vs bulk blob-channel connections).
	tmConnsProto = obs.Default().Gauge("faust_transport_conns", "kind", "proto")
	tmConnsBlob  = obs.Default().Gauge("faust_transport_conns", "kind", "blob")

	// Frames moved on TCP connections, by direction relative to this
	// process ("out" counts every framed message written, on either side
	// of the wire; "in" counts frames read by server-side loops).
	tmFramesIn  = obs.Default().Counter("faust_transport_frames_total", "dir", "in")
	tmFramesOut = obs.Default().Counter("faust_transport_frames_total", "dir", "out")

	// Handshake outcomes. Rejections also land in the protocol event log
	// as preflight-reject events with the shard name.
	tmHandshakeOK  = obs.Default().Counter("faust_transport_handshakes_total", "result", "accepted")
	tmHandshakeRej = obs.Default().Counter("faust_transport_handshakes_total", "result", "rejected")

	// Dispatcher-side handler latency: the time one SUBMIT (or COMMIT)
	// spends in the dispatch pipeline, excluding queueing and the reply
	// write — for a SUBMIT that is its batch's verify + apply + shared
	// flush, at any batch size. Shared by the TCP dispatchers and the
	// in-memory network's dispatcher so both transports report comparable
	// numbers.
	tmSubmitNs = obs.Default().Histogram("faust_ustor_op_latency_ns", "op", "submit")
	tmCommitNs = obs.Default().Histogram("faust_ustor_op_latency_ns", "op", "commit")

	// Batched dispatch: how many envelopes each inbox drain took (the
	// distribution shows how much amortization load actually buys) and
	// how many SUBMITs the opt-in signature check
	// turned away. Oversized drains pin a trace exemplar on the size
	// histogram — see observeBatchSize.
	tmBatchSize     = obs.Default().Histogram("faust_dispatch_batch_size")
	tmVerifyRejects = obs.Default().Counter("faust_verify_reject_total")

	// Client-side blob-channel pipelining depth and server-side request
	// volume of the bulk channel.
	tmBlobInflight = obs.Default().Gauge("faust_blob_inflight")
	tmBlobReqs     = obs.Default().Counter("faust_blob_requests_total")

	// Fresh connections consumed by RedialBlobChannel wrappers after a
	// poisoned channel (one increment per redial attempt, successful or
	// not).
	tmBlobRedials = obs.Default().Counter("faust_blob_redials_total")
)

func init() {
	r := obs.Default()
	r.Help("faust_transport_conns", "post-handshake TCP connections currently registered")
	r.Help("faust_transport_frames_total", "framed messages moved on TCP connections")
	r.Help("faust_transport_handshakes_total", "TCP handshake outcomes")
	r.Help("faust_ustor_op_latency_ns", "server-side handler latency per dispatched operation, nanoseconds")
	r.Help("faust_dispatch_batch_size", "envelopes drained per dispatcher batch")
	r.Help("faust_verify_reject_total", "SUBMITs dropped by dispatcher-side signature verification")
	r.Help("faust_blob_inflight", "blob-channel requests currently in flight (client side)")
	r.Help("faust_blob_requests_total", "blob-channel requests served (server side)")
	r.Help("faust_blob_redials_total", "blob-channel redials after connection failures (client side)")
	r.Help("faust_shard_ops_total", "operations dispatched per shard")
}

// shardOpsCounter returns the per-tenant op counter for a shard. Called
// once per shard runtime creation; the handle is cached on the shardRT.
func shardOpsCounter(name string) *obs.Counter {
	return obs.Default().Counter("faust_shard_ops_total", "shard", name)
}
