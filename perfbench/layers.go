package main

import "strings"

// layerMetric is one per-layer metric the traced run reports.
type layerMetric struct {
	name string
	unit string
	// from says where the value comes from:
	//   "self:<span>"   median self time of the span, with a _tail twin
	//   "allocs:<span>" median heap allocations per call of the span
	//   "value:<name>"  mean of a per-call quantity the replay records
	//   "count:<name>"  a count from the real unit's telemetry
	//   "per:<span>"    calls of the span per replayed frame
	//   "extra:<name>"  tracing overhead, coverage, and profile shares
	from string
}

// spanSelf lists the timed calls: metric name, span name, and unit.
var spanSelf = []struct{ metric, span, unit string }{
	{"vidgen.render_us", "vidgen.render", "us"},
	{"frame.downscale_us", "frame.downscale", "us"},
	{"frame.resize_us", "frame.resize", "us"},
	{"codec.encode_us", "codec.encode", "us"},
	{"codec.decode_us", "codec.decode", "us"},
	{"codec.patch_encode_us", "codec.patch_encode", "us"},
	{"codec.patch_decode_us", "codec.patch_decode", "us"},
	{"metrics.psnr_us", "metrics.psnr", "us"},
	{"transport.packetize_us", "transport.packetize", "us"},
	{"transport.reassemble_us", "transport.reassemble", "us"},
	{"sr.process_us", "sr.process", "us"},
	{"sr.train_epoch_ms", "sr.train_epoch", "ms"},
	{"wire.playlist.write_us", "wire.playlist.write", "us"},
	{"wire.playlist.read_us", "wire.playlist.read", "us"},
	{"wire.segment_req.write_us", "wire.segment_req.write", "us"},
	{"wire.segment_req.read_us", "wire.segment_req.read", "us"},
	{"wire.segment.write_us", "wire.segment.write", "us"},
	{"wire.segment.read_us", "wire.segment.read", "us"},
	{"edge.playlist_encode_us", "edge.playlist_encode", "us"},
	{"edge.playlist_decode_us", "edge.playlist_decode", "us"},
	{"edge.segmenter_push_us", "edge.segmenter_push", "us"},
	{"abr.decide_us", "abr.decide", "us"},
}

// wireKinds are the message kinds the edge replay frames.
var wireKinds = []string{"playlist", "segment_req", "segment"}

// layerMetrics is every per-layer metric, in report order. Layers a
// workload does not exercise report 0.
func layerMetrics() []layerMetric {
	var out []layerMetric
	for _, s := range spanSelf {
		out = append(out,
			layerMetric{s.metric, s.unit, "self:" + s.span},
			layerMetric{s.metric + "_tail", s.unit, "tail:" + s.span})
	}
	out = append(out,
		layerMetric{"vidgen.renders_per_frame", "count", "per:vidgen.render"},
		layerMetric{"codec.encode_allocs", "allocs", "allocs:codec.encode"},
		layerMetric{"codec.decode_allocs", "allocs", "allocs:codec.decode"},
		layerMetric{"codec.encoded_bytes", "B", "value:codec.encoded_bytes"},
		layerMetric{"transport.fragments_per_frame", "count", "value:transport.fragments_per_frame"},
		layerMetric{"transport.units_lost", "count", "count:transport.units_lost"},
		layerMetric{"netem.drop_frac", "fraction", "count:netem.drop_frac"},
		layerMetric{"gcc.reports", "count", "count:gcc.reports"},
		layerMetric{"gcc.backoffs", "count", "count:gcc.backoffs"},
		layerMetric{"gcc.mean_target_kbps", "kbps", "count:gcc.mean_target_kbps"},
		layerMetric{"core.frames_decoded", "count", "count:core.frames_decoded"},
		layerMetric{"core.patches_received", "count", "count:core.patches_received"},
		layerMetric{"core.patch_admit_frac", "fraction", "count:core.patch_admit_frac"},
		layerMetric{"core.train_epochs", "count", "count:core.train_epochs"},
		layerMetric{"sr.process_allocs", "allocs", "allocs:sr.process"},
		layerMetric{"sr.train_steps", "count", "count:sr.train_steps"},
		layerMetric{"sr.infer_frames", "count", "count:sr.infer_frames"},
		layerMetric{"nn.arena_hit_frac", "fraction", "count:nn.arena_hit_frac"},
	)
	for _, k := range wireKinds {
		out = append(out,
			layerMetric{"wire." + k + ".allocs_per_msg", "allocs", "allocs:wire." + k},
			layerMetric{"wire." + k + ".bytes_per_msg", "B", "value:wire." + k + ".bytes"})
	}
	out = append(out,
		layerMetric{"edge.playlist_decode_allocs", "allocs", "allocs:edge.playlist_decode"},
		layerMetric{"edge.playlist_pushes", "count", "count:edge.playlist_pushes"},
		layerMetric{"edge.segments_sent", "count", "count:edge.segments_sent"},
		layerMetric{"edge.segments_delivered", "count", "count:edge.segments_delivered"},
		layerMetric{"edge.dropped_msgs", "count", "count:edge.dropped_msgs"},
		layerMetric{"edge.hop_p99_ms", "ms", "count:edge.hop_p99_ms"},
		layerMetric{"trace.overhead_frac", "fraction", "extra:trace.overhead_frac"},
		layerMetric{"trace.coverage_frac", "fraction", "extra:trace.coverage_frac"},
	)
	for _, b := range buckets {
		out = append(out, layerMetric{"profile." + b + "_frac", "fraction", "extra:profile." + b})
	}
	for _, b := range buckets {
		if b != "runtime" {
			out = append(out, layerMetric{"replay." + b + "_frac", "fraction", "extra:replay." + b})
		}
	}
	return out
}

// spanBucket maps a span name to the profile bucket of the package it
// calls into.
func spanBucket(name string) string {
	pkg, _, _ := strings.Cut(name, ".")
	return bucketOf(pkg)
}
