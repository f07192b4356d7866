package main

import (
	"bytes"
	"fmt"
	"time"

	"livenas/internal/abr"
	"livenas/internal/codec"
	"livenas/internal/core"
	"livenas/internal/edge"
	"livenas/internal/frame"
	"livenas/internal/metrics"
	"livenas/internal/nn"
	"livenas/internal/sr"
	"livenas/internal/telemetry"
	"livenas/internal/transport"
	"livenas/internal/vidgen"
	"livenas/internal/wire"
)

// replayPatch is a received patch pair the gain evaluation reuses, as the
// media server keeps its last eight.
type replayPatch struct{ lr, hr *frame.Frame }

// replay re-does one session's work through the layers' public functions:
// every captured frame is rendered, downscaled, encoded at the bitrate the
// session chose that second, packetized, reassembled and decoded; the
// decoded stream is super-resolved and scored at the session's cadence;
// the session's patches are encoded, decoded and added to the trainer; and
// its epochs are trained and evaluated. Counts come from the real unit.
func (w *sessionWorkload) replay(tr *tracer, u *unit) error {
	res := u.session
	cfg := res.Cfg
	scale := cfg.Native.W / cfg.Ingest.W
	fps := cfg.FPS
	frames := int(u.work)

	src := vidgen.NewSource(cfg.Cat, cfg.Native.W, cfg.Native.H, cfg.Seed, cfg.Duration.Seconds()+60)
	codecCfg := codec.Config{Profile: cfg.Profile, W: cfg.Ingest.W, H: cfg.Ingest.H, Deblock: cfg.Deblock}
	encCfg := codecCfg
	encCfg.KeyInterval = int(fps * 4)
	enc := codec.NewEncoder(encCfg)
	dec := codec.NewDecoder(codecCfg)
	reasm := transport.NewReassembler()
	var assembled []transport.Assembled
	reasm.OnComplete = func(a transport.Assembled) { assembled = append(assembled, a) }

	reg := telemetry.New()
	model := sr.NewModel(scale, cfg.Channels, 1234)
	model.SetKernelPool(nn.SharedPool())
	prev := model.Clone()
	tcfg := cfg.TrainCfg
	tcfg.GPUs = cfg.TrainGPUs
	trainer := sr.NewTrainer(model, tcfg, cfg.Seed^0xbeef)
	trainer.SetTelemetry(reg)
	proc := sr.NewProcessor(model, cfg.InferGPUs, cfg.Device)
	proc.SetTelemetry(reg)

	ps := cfg.PatchSize
	lps := ps / scale
	cells := frame.Grid(cfg.Native.W, cfg.Native.H, ps)
	sent, received := res.PatchesSent, res.PatchesReceived
	metricFrames := int(cfg.MetricEvery.Seconds()*fps + 0.5)
	if metricFrames < 1 {
		metricFrames = 1
	}
	frameGap := time.Duration(float64(time.Second) / fps)
	nextEpoch := cfg.EpochLen
	var recent []replayPatch
	var latest *frame.Frame
	patch := 0

	gainEval := func(m *sr.Model) {
		id := tr.begin("sr.gain_eval")
		for _, p := range recent {
			s := tr.begin("frame.resize")
			up := p.lr.ResizeBilinear(p.hr.W, p.hr.H)
			tr.end(s)
			s = tr.begin("metrics.psnr")
			metrics.PSNR(p.hr, up)
			tr.end(s)
			s = tr.begin("sr.superresolve")
			out := m.SuperResolve(p.lr)
			tr.end(s)
			s = tr.begin("metrics.psnr")
			metrics.PSNR(p.hr, out)
			tr.end(s)
		}
		tr.end(id)
	}

	for i := 0; i < frames && !tr.done(); i++ {
		at := time.Duration(i) * frameGap
		tr.newTrace()
		root := tr.begin("core.frame")

		s := tr.begin("vidgen.render")
		raw := src.FrameAt(at.Seconds())
		tr.end(s)
		s = tr.begin("frame.downscale")
		lr := raw.Downscale(scale)
		tr.end(s)

		bits := int(videoKbpsAt(res.Video, at) * 1000 / fps)
		s = tr.begin("codec.encode")
		ef := enc.Encode(lr, bits)
		tr.end(s)
		tr.count("codec.encoded_bytes", float64(len(ef.Data)))
		s = tr.begin("metrics.psnr")
		metrics.PSNR(lr, enc.Reconstructed())
		tr.end(s)

		s = tr.begin("transport.packetize")
		frags := transport.Packetize(transport.KindVideo, i, ef.Data, at, cfg.MTU)
		tr.end(s)
		tr.count("transport.fragments_per_frame", float64(len(frags)))
		assembled = assembled[:0]
		s = tr.begin("transport.reassemble")
		for _, f := range frags {
			reasm.Add(f, at)
		}
		tr.end(s)
		if len(assembled) != 1 {
			return fmt.Errorf("replay: frame %d reassembled into %d units", i, len(assembled))
		}
		if ef.Key {
			dec.Reset()
		}
		s = tr.begin("codec.decode")
		got, err := dec.Decode(&codec.EncodedFrame{Data: assembled[0].Data, Key: ef.Key, QP: ef.QP, Seq: i})
		tr.end(s)
		if err != nil {
			return fmt.Errorf("replay: decode frame %d: %w", i, err)
		}
		latest = got

		// This frame's share of the session's patches.
		for ; patch < sent && patch*frames/sent <= i; patch++ {
			cell := cells[(patch*7)%len(cells)]
			hr := raw.Crop(cell.X, cell.Y, ps, ps)
			s = tr.begin("codec.patch_encode")
			data := codec.EncodePatch(hr, codec.PatchQuality)
			tr.end(s)
			if patch >= received {
				continue
			}
			s = tr.begin("codec.patch_decode")
			hrDec, err := codec.DecodePatch(data)
			tr.end(s)
			if err != nil {
				return fmt.Errorf("replay: decode patch %d: %w", patch, err)
			}
			lrCrop := latest.Crop(cell.X/scale, cell.Y/scale, lps, lps)
			if patch < u.admitted {
				s = tr.begin("sr.add_sample")
				trainer.AddSample(lrCrop, hrDec)
				tr.end(s)
			}
			recent = append(recent, replayPatch{lr: lrCrop, hr: hrDec})
			if len(recent) > 8 {
				recent = recent[len(recent)-8:]
			}
		}

		if (i+1)%metricFrames == 0 {
			s = tr.begin("sr.process")
			out, _ := proc.Process(latest)
			tr.end(s)
			s = tr.begin("vidgen.render")
			gt := src.FrameAt(at.Seconds())
			tr.end(s)
			s = tr.begin("metrics.psnr")
			metrics.PSNR(gt, out)
			tr.end(s)
		}
		tr.end(root)

		// Epoch ticks that fall before the next capture, trained when the
		// session trained at that tick and only evaluated otherwise.
		for next := at + frameGap; nextEpoch < next && nextEpoch <= cfg.Duration; nextEpoch += cfg.EpochLen {
			tr.newTrace()
			root := tr.begin("core.epoch")
			if u.epochAt[nextEpoch] {
				s = tr.begin("sr.copy_weights")
				prev.CopyWeightsFrom(model)
				tr.end(s)
				if trainer.SampleCount() > 0 {
					s = tr.begin("sr.train_epoch")
					trainer.Epoch()
					tr.end(s)
					s = tr.begin("sr.sync")
					proc.Sync(model)
					tr.end(s)
				}
				gainEval(prev)
			}
			gainEval(model)
			tr.end(root)
		}
	}
	return nil
}

// videoKbpsAt returns the session's video bitrate at time t: the last
// sample of the Results.Video series at or before t, else the first.
func videoKbpsAt(series []core.SeriesPoint, t time.Duration) float64 {
	if len(series) == 0 {
		return 0
	}
	v := series[0].V
	for _, p := range series {
		if p.T > t {
			break
		}
		v = p.V
	}
	return v
}

// replay re-does one edge simulation's per-segment work through the edge,
// abr and wire packages: each segment's payloads are cut by a Segmenter,
// the playlist is encoded once and decoded once per push the simulation
// made, every viewer's ABR decides, and one message of each kind is framed
// through wire.WriteFrame and read back through wire.ReadFrame.
func (w *edgeWorkload) replay(tr *tracer, u *unit) error {
	src := w.source()
	res := u.edgeRes
	seg := edge.NewSegmenter(src.Channel, src.SegDur, src.Rungs, 0)
	rungs := make([]abr.Rung, len(src.Rungs))
	for i, r := range src.Rungs {
		rungs[i] = abr.Rung{Name: r.Name, Kbps: r.Kbps, EffectiveKbps: r.EffectiveKbps}
	}
	downlinks := w.downlinks[u.input]
	algs := make([]abr.RobustMPC, w.viewers)
	thr := make([][]float64, w.viewers)
	pushes := int(u.counts["edge.playlist_pushes"])
	count := res.SegmentsPublished
	var buf bytes.Buffer

	frameMsg := func(kind string, m *wire.Message) error {
		buf.Reset()
		s := tr.begin("wire." + kind + ".write")
		err := wire.WriteFrame(&buf, m)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("replay: write %s: %w", kind, err)
		}
		tr.count("wire."+kind+".bytes", float64(buf.Len()))
		s = tr.begin("wire." + kind + ".read")
		_, err = wire.ReadFrame(&buf)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("replay: read %s: %w", kind, err)
		}
		return nil
	}

	for i := 0; i < count && !tr.done(); i++ {
		at := src.StartAt + time.Duration(i)*src.SegDur
		tr.newTrace()
		root := tr.begin("edge.publish")

		s := tr.begin("edge.payloads")
		payloads := make([][]byte, len(src.Rungs))
		for r, rung := range src.Rungs {
			payloads[r] = edge.SyntheticPayload(src.Channel, i, r, int(rung.Kbps*src.SegDur.Seconds()*1000/8))
		}
		tr.end(s)
		s = tr.begin("edge.segmenter_push")
		ref := seg.Push(at, payloads)
		tr.end(s)
		s = tr.begin("edge.playlist_encode")
		raw := seg.Playlist().Encode()
		tr.end(s)

		// This push's share of the playlist deliveries the sim made.
		for d := pushes * i / count; d < pushes*(i+1)/count; d++ {
			s = tr.begin("edge.playlist_decode")
			_, err := edge.DecodePlaylist(raw)
			tr.end(s)
			if err != nil {
				return fmt.Errorf("replay: decode playlist %d: %w", i, err)
			}
		}

		buffer := time.Duration(min(i, 8)) * src.SegDur
		firstRung := 0
		for v := range algs {
			thr[v] = append(thr[v], downlinks[v])
			if len(thr[v]) > 5 {
				thr[v] = thr[v][1:]
			}
			s = tr.begin("abr.decide")
			r := algs[v].Next(rungs, thr[v], buffer)
			tr.end(s)
			if v == 0 {
				firstRung = r
			}
		}

		msgs := []struct {
			kind string
			m    *wire.Message
		}{
			{"playlist", &wire.Message{Type: wire.MsgPlaylist, Channel: src.Channel, Data: raw}},
			{"segment_req", &wire.Message{Type: wire.MsgSegmentReq, Channel: src.Channel, FrameID: i, Rung: firstRung}},
			{"segment", &wire.Message{Type: wire.MsgSegment, Channel: src.Channel, FrameID: i, Rung: firstRung,
				SegID: ref.IDs[firstRung], SegDurUS: ref.DurUS, SentAtUS: at.Microseconds(), Data: payloads[firstRung]}},
		}
		for _, m := range msgs {
			if err := frameMsg(m.kind, m.m); err != nil {
				return err
			}
		}
		tr.end(root)
	}
	return nil
}
