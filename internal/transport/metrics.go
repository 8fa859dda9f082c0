package transport

import "faust/internal/obs"

// Metric handles for the transport hot paths, resolved once at package
// init and touched lock-free afterwards. Everything reports into the
// process-wide default registry, which cmd/faust-server exposes via
// -metrics-addr.
var (
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

	// SUBMITs the opt-in dispatcher signature check turned away.
	tmVerifyRejects = obs.Default().Counter("faust_verify_reject_total")
)

func init() {
	r := obs.Default()
	r.Help("faust_transport_frames_total", "framed messages moved on TCP connections")
	r.Help("faust_transport_handshakes_total", "TCP handshake outcomes")
	r.Help("faust_ustor_op_latency_ns", "server-side handler latency per dispatched operation, nanoseconds")
	r.Help("faust_verify_reject_total", "SUBMITs dropped by dispatcher-side signature verification")
	r.Help("faust_shard_ops_total", "operations dispatched per shard")
}

// shardOpsCounter returns the per-tenant op counter for a shard. Called
// once per shard runtime creation; the handle is cached on the shardRT.
func shardOpsCounter(name string) *obs.Counter {
	return obs.Default().Counter("faust_shard_ops_total", "shard", name)
}
