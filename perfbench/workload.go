package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"livenas/internal/abr"
	"livenas/internal/core"
	"livenas/internal/edge"
	"livenas/internal/telemetry"
	"livenas/internal/trace"
	"livenas/internal/vidgen"
)

// workload is one named set of inputs. A run derives k unit inputs from
// its seed, then runs units through the program's public entry point
// (core.RunContext or edge.RunSim) one at a time, cycling over the inputs.
type workload interface {
	// unitName names what a unit of work is: "frame" or "viewer".
	unitName() string
	// inputs is the number of distinct unit inputs a run derives.
	inputs() int
	// prepare derives the unit inputs from the run's seed.
	prepare(seed int64)
	// warmUp runs one untimed unit so first-touch work is paid in set-up.
	warmUp(ctx context.Context) error
	// run executes unit input i and checks its output.
	run(ctx context.Context, i int) (*unit, error)
	// replay re-does unit u's work through the layers' public functions,
	// one span per call.
	replay(tr *tracer, u *unit) error
}

// unit is one unit's outcome.
type unit struct {
	input int
	// work is the number of work units: captured frames or viewers.
	work float64
	// latencyMS is the virtual-time latency a user sees: mean
	// capture-to-decode on a session, publish-to-viewer p99 on the edge.
	latencyMS float64
	// lost counts lost frames or skipped segments, out of attempted
	// frames or viewer-segments (the fail_frac the detail line reports).
	lost, attempted float64
	digest          [32]byte
	// counts are the per-layer counts from the unit's telemetry registry.
	counts map[string]float64
	// quality holds the workload's own named outcome metrics.
	quality map[string]float64
	// replay inputs.
	session  *core.Results
	admitted int                    // patches the trainer took
	epochAt  map[time.Duration]bool // epoch ticks that trained
	edgeRes  *edge.Result
}

// digester hashes a canonical little-endian encoding of a result.
type digester struct{ b []byte }

func (d *digester) u64(v uint64) { d.b = binary.LittleEndian.AppendUint64(d.b, v) }
func (d *digester) i64(v int64)  { d.u64(uint64(v)) }
func (d *digester) f64(v float64) {
	d.u64(math.Float64bits(v))
}
func (d *digester) str(s string) {
	d.u64(uint64(len(s)))
	d.b = append(d.b, s...)
}
func (d *digester) sum() [32]byte { return sha256.Sum256(d.b) }

// deriveSeed gives unit input i of a run its own seed.
func deriveSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int64(x >> 1)
}

// The fast world of the experiment harness: a "1080p/5" 384x216 native
// stream, x2 super-resolution from 192x108, 10 fps, with the harness's
// bitrate knobs scaled to that frame area.
var (
	nativeRes = trace.Resolution{Name: "1080p/5", W: 384, H: 216}
	ingestRes = trace.Resolution{Name: "540p/5", W: 192, H: 108}
)

// uplinkMeanKbps is the FCC uplink mean in the fast world.
const uplinkMeanKbps = 250

// sessionWorkload is one LiveNAS ingest session per unit.
type sessionWorkload struct {
	cat         vidgen.Category
	channels    int
	metricEvery time.Duration
	duration    time.Duration
	warmDur     time.Duration
	k           int

	seeds  []int64
	uplink []*trace.Trace
}

func (w *sessionWorkload) unitName() string { return "frame" }
func (w *sessionWorkload) inputs() int      { return w.k }

func (w *sessionWorkload) prepare(seed int64) {
	w.seeds, w.uplink = nil, nil
	for i := 0; i < w.k; i++ {
		s := deriveSeed(seed, i)
		w.seeds = append(w.seeds, s)
		w.uplink = append(w.uplink, trace.FCCUplink(s, w.duration+90*time.Second, uplinkMeanKbps))
	}
}

func (w *sessionWorkload) config(i int) core.Config {
	return core.Config{
		Cat:           w.cat,
		Seed:          w.seeds[i],
		Native:        nativeRes,
		Ingest:        ingestRes,
		FPS:           10,
		Duration:      w.duration,
		Trace:         w.uplink[i],
		Scheme:        core.SchemeLiveNAS,
		TrainPolicy:   core.TrainAdaptive,
		PatchSize:     24,
		Channels:      w.channels,
		MetricEvery:   w.metricEvery,
		MinVideoKbps:  40,
		GCCInitKbps:   160,
		StepKbps:      20,
		InitPatchKbps: 20,
		MinPatchKbps:  5,
		MTU:           240,
	}
}

func (w *sessionWorkload) warmUp(ctx context.Context) error {
	cfg := w.config(0)
	cfg.Duration = w.warmDur
	_, err := core.RunContext(ctx, cfg)
	return err
}

func (w *sessionWorkload) run(ctx context.Context, i int) (*unit, error) {
	r, err := core.RunContext(ctx, w.config(i))
	if err != nil {
		return nil, err
	}
	snap := r.Telemetry().Snapshot()
	c := snap.Counters
	captured := float64(c["core_frames_captured"])
	if r.FramesDecoded == 0 || len(r.Samples) == 0 {
		return nil, fmt.Errorf("session decoded %d frames, scored %d", r.FramesDecoded, len(r.Samples))
	}
	for _, s := range r.Samples {
		if math.IsNaN(s.PSNR) || s.PSNR <= 0 {
			return nil, fmt.Errorf("session scored PSNR %v at %v", s.PSNR, s.T)
		}
	}
	if float64(r.FramesDecoded+r.FramesLost) > captured {
		return nil, fmt.Errorf("session decoded %d and lost %d of %v captured frames", r.FramesDecoded, r.FramesLost, captured)
	}
	if c["core_frames_decoded"] != int64(r.FramesDecoded) || c["core_patches_received"] != int64(r.PatchesReceived) {
		return nil, fmt.Errorf("telemetry disagrees with results: decoded %d vs %d, patches %d vs %d",
			c["core_frames_decoded"], r.FramesDecoded, c["core_patches_received"], r.PatchesReceived)
	}
	if r.AvgE2ELatency <= 0 {
		return nil, fmt.Errorf("session reports no capture-to-decode latency")
	}

	var d digester
	for _, s := range r.Samples {
		d.i64(int64(s.T))
		d.f64(s.PSNR)
		d.f64(s.SSIM)
	}
	for _, v := range []int{r.BytesVideo, r.BytesPatch, r.FramesDecoded, r.FramesLost, r.PatchesSent, r.PatchesReceived} {
		d.i64(int64(v))
	}
	d.i64(int64(r.AvgE2ELatency))
	for _, sc := range r.TrainerTimeline() {
		d.i64(int64(sc.T))
		d.str(sc.State)
	}

	epochAt := map[time.Duration]bool{}
	for _, ev := range r.Telemetry().EventsByType("train_epoch") {
		epochAt[ev.T] = true
	}
	hits, misses := snap.Gauges["nn_arena_hits"], snap.Gauges["nn_arena_misses"]
	return &unit{
		input:     i,
		work:      captured,
		latencyMS: float64(r.AvgE2ELatency) / float64(time.Millisecond),
		lost:      float64(r.FramesLost),
		attempted: captured,
		digest:    d.sum(),
		counts: map[string]float64{
			"core.frames_decoded":   float64(r.FramesDecoded),
			"core.patches_received": float64(r.PatchesReceived),
			"core.patch_admit_frac": ratio(float64(c["core_patches_admitted"]), float64(r.PatchesReceived)),
			"core.train_epochs":     float64(c["core_train_epochs"]),
			"transport.units_lost":  float64(c["transport_units_video_lost"] + c["transport_units_patch_lost"]),
			"netem.drop_frac":       ratio(float64(r.LinkStats.Dropped), float64(r.LinkStats.Sent)),
			"gcc.reports":           float64(c["gcc_reports"]),
			"gcc.backoffs":          float64(c["gcc_overuse_backoffs"] + c["gcc_loss_backoffs"]),
			"gcc.mean_target_kbps":  r.AvgBandwidthKbps,
			"sr.train_steps":        float64(c["sr_train_steps"]),
			"sr.infer_frames":       float64(c["sr_infer_frames"]),
			"nn.arena_hit_frac":     ratio(hits, hits+misses),
		},
		quality: map[string]float64{
			"psnr_db":              r.AvgPSNR,
			"capture_to_decode_ms": float64(r.AvgE2ELatency) / float64(time.Millisecond),
		},
		session:  r,
		admitted: int(c["core_patches_admitted"]),
		epochAt:  epochAt,
	}, nil
}

// edgeBoost is the effective-bitrate boost of the enhanced origin stream,
// the constant the edge bench plan of the experiment harness uses.
const edgeBoost = 1.3

// edgeWorkload is one edge fan-out simulation per unit: one channel's
// segments through a two-level relay tree to robustMPC viewers.
type edgeWorkload struct {
	viewers  int
	segments int
	fanout   int
	k        int

	downlinks [][]float64
}

func (w *edgeWorkload) unitName() string { return "viewer" }
func (w *edgeWorkload) inputs() int      { return w.k }

func (w *edgeWorkload) prepare(seed int64) {
	w.downlinks = nil
	for i := 0; i < w.k; i++ {
		w.downlinks = append(w.downlinks, edge.DefaultViewerKbps(w.viewers, deriveSeed(seed, i)))
	}
}

func edgeRungs() []edge.RungInfo {
	ladder := abr.Boost(abr.Ladder(false), edgeBoost)
	out := make([]edge.RungInfo, len(ladder))
	for i, r := range ladder {
		out[i] = edge.RungInfo{Name: r.Name, Kbps: r.Kbps, EffectiveKbps: r.EffectiveKbps}
	}
	return out
}

func (w *edgeWorkload) source() *edge.Source {
	return &edge.Source{Channel: "ch000", SegDur: time.Second, Rungs: edgeRungs(), Count: w.segments, StartAt: time.Second}
}

func (w *edgeWorkload) config(i int, reg *telemetry.Registry) edge.SimConfig {
	return edge.SimConfig{
		Source:    w.source(),
		Viewers:   w.viewers,
		Fanout:    w.fanout,
		Links:     edge.SimLinks{ViewerKbps: w.downlinks[i]},
		Telemetry: reg,
	}
}

// warmUpViewers sizes the warm-up sim: enough to touch every code path
// of a unit at a tenth of its cost.
const warmUpViewers = 100

func (w *edgeWorkload) warmUp(ctx context.Context) error {
	cfg := w.config(0, telemetry.New())
	cfg.Viewers = min(w.viewers, warmUpViewers)
	_, err := edge.RunSim(cfg)
	return err
}

func (w *edgeWorkload) run(ctx context.Context, i int) (*unit, error) {
	reg := telemetry.New()
	r, err := edge.RunSim(w.config(i, reg))
	if err != nil {
		return nil, err
	}
	snap := reg.Snapshot()
	c := snap.Counters
	total := r.Viewers * r.SegmentsPublished
	if r.Delivered == 0 {
		return nil, fmt.Errorf("edge sim delivered nothing")
	}
	if r.Delivered+r.Skipped > total {
		return nil, fmt.Errorf("edge sim delivered %d and skipped %d of %d viewer-segments", r.Delivered, r.Skipped, total)
	}
	if c["edge_segments_delivered"] != int64(r.Delivered) {
		return nil, fmt.Errorf("telemetry disagrees with result: %d vs %d segments delivered", c["edge_segments_delivered"], r.Delivered)
	}
	if r.DeliveryP99 <= 0 || r.DeliveryP50 > r.DeliveryP99 {
		return nil, fmt.Errorf("edge sim delivery quantiles p50 %v, p99 %v", r.DeliveryP50, r.DeliveryP99)
	}

	var d digester
	for _, v := range []int{r.Viewers, r.RelaysL1, r.RelaysL2, r.Fanout, r.SegmentsPublished,
		r.Delivered, r.Skipped, r.Duplicates, r.Timeouts, r.DroppedMsgs} {
		d.i64(int64(v))
	}
	d.i64(r.OriginEgressBytes)
	d.i64(r.RelayEgressBytes)
	d.i64(r.ViewerBytes)
	d.f64(r.StallSec)
	d.f64(r.MeanKbps)
	d.f64(r.MeanEffKbps)
	d.i64(int64(r.DeliveryP50))
	d.i64(int64(r.DeliveryP99))

	p99 := float64(r.DeliveryP99) / float64(time.Millisecond)
	return &unit{
		input:     i,
		work:      float64(r.Viewers),
		latencyMS: p99,
		lost:      float64(r.Skipped),
		attempted: float64(total),
		digest:    d.sum(),
		counts: map[string]float64{
			"edge.playlist_pushes":    float64(c["edge_playlist_pushes"]),
			"edge.segments_sent":      float64(c["edge_segments_sent"]),
			"edge.segments_delivered": float64(c["edge_segments_delivered"]),
			"edge.dropped_msgs":       float64(r.DroppedMsgs),
			"edge.hop_p99_ms":         snap.Histograms["edge_hop_latency_ms"].P99,
		},
		quality: map[string]float64{
			"delivery_p99_ms":    p99,
			"delivery_p50_ms":    float64(r.DeliveryP50) / float64(time.Millisecond),
			"stall_s_per_viewer": r.StallSec / float64(r.Viewers),
			"mean_eff_kbps":      r.MeanEffKbps,
		},
		edgeRes: r,
	}, nil
}
