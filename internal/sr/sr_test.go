package sr

import (
	"math"
	"testing"
	"time"

	"livenas/internal/frame"
	"livenas/internal/metrics"
	"livenas/internal/vidgen"
)

func TestUntrainedModelEqualsBilinear(t *testing.T) {
	m := NewModel(2, 4, 1)
	src := vidgen.NewSource(vidgen.JustChatting, 64, 48, 3, 10)
	lr := src.FrameAt(1).Downscale(2)
	got := m.SuperResolve(lr)
	want := lr.ResizeBilinear(lr.W*2, lr.H*2)
	for i := range got.Pix {
		if got.Pix[i] != want.Pix[i] {
			t.Fatal("zero-initialised model must reproduce bilinear upsampling")
		}
	}
}

func TestModelPanicsOnBadScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewModel(0, 4, 1)
}

func TestCloneAndCopyWeights(t *testing.T) {
	a := NewModel(2, 4, 7)
	b := a.Clone()
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].W {
			if pa[i].W[j] != pb[i].W[j] {
				t.Fatal("clone weights differ")
			}
		}
	}
	pa[0].W[0] += 1
	if pb[0].W[0] == pa[0].W[0] {
		t.Fatal("clone shares weight storage")
	}
	b.CopyWeightsFrom(a)
	if pb[0].W[0] != pa[0].W[0] {
		t.Fatal("CopyWeightsFrom did not copy")
	}
}

func TestTensorFrameRoundTrip(t *testing.T) {
	src := vidgen.NewSource(vidgen.Sports, 32, 32, 5, 10)
	f := src.FrameAt(0.5)
	g := FromTensor(ToTensor(f))
	for i := range f.Pix {
		if d := int(f.Pix[i]) - int(g.Pix[i]); d > 1 || d < -1 {
			t.Fatalf("round trip error %d at %d", d, i)
		}
	}
}

// trainPairs builds (lr, hr) pairs from a stream's frames, rotating through
// the patch grid so the training set covers the whole frame (as LiveNAS's
// patch sampler does — spatial diversity is what makes the gain generalise).
func trainPairs(tr *Trainer, src *vidgen.Source, scale, hrSize, n int) {
	var cells []frame.GridCell
	for i := 0; i < n; i++ {
		f := src.FrameAt(float64(i) * 0.5)
		if cells == nil {
			cells = frame.Grid(f.W, f.H, hrSize)
		}
		for j := 0; j < 2; j++ {
			cell := cells[(2*i+j)%len(cells)]
			hr := frame.Patch(f, cell, hrSize)
			tr.AddSample(hr.Downscale(scale), hr)
		}
	}
}

func onlineGain(t *testing.T, gpus int) float64 {
	t.Helper()
	const scale = 2
	m := NewModel(scale, 6, 11)
	cfg := DefaultTrainConfig()
	cfg.GPUs = gpus
	tr := NewTrainer(m, cfg, 5)
	src := vidgen.NewSource(vidgen.JustChatting, 128, 96, 21, 60)
	trainPairs(tr, src, scale, 48, 8)
	for e := 0; e < 6; e++ {
		tr.Epoch()
	}
	// Evaluate on a *later* frame of the same stream.
	hr := src.FrameAt(9.7)
	lr := hr.Downscale(scale)
	bil := metrics.PSNR(hr, lr.ResizeBilinear(hr.W, hr.H))
	srp := metrics.PSNR(hr, m.SuperResolve(lr))
	return srp - bil
}

func TestOnlineTrainingBeatsBilinear(t *testing.T) {
	gain := onlineGain(t, 1)
	if gain < 0.3 {
		t.Fatalf("online gain %.2f dB; want >= 0.3 dB over bilinear", gain)
	}
}

func TestMultiGPUTrainingAlsoLearns(t *testing.T) {
	gain := onlineGain(t, 3)
	if gain < 0.3 {
		t.Fatalf("3-GPU online gain %.2f dB; want >= 0.3", gain)
	}
}

// TestMultiGPUTrainingCalibratesOnEverySample pins that with several
// training devices every minibatch sample still feeds the int8 activation
// calibration, as on one device. The batch of nine splits into whole
// shards for one and three devices, so both runs draw the same samples and
// (one step, so one set of weights) must see the same activation maxima.
func TestMultiGPUTrainingCalibratesOnEverySample(t *testing.T) {
	calib := func(gpus int) [2]float32 {
		m := NewModel(2, 6, 5)
		cfg := DefaultTrainConfig()
		cfg.GPUs = gpus
		cfg.ItersPerEpoch = 1
		cfg.Batch = 9
		tr := NewTrainer(m, cfg, 5)
		trainPairs(tr, vidgen.NewSource(vidgen.Sports, 96, 96, 41, 60), 2, 48, 6)
		tr.Epoch()
		return m.calibStats()
	}
	if one, three := calib(1), calib(3); one != three {
		t.Fatalf("calibration maxima: 1 GPU %v, 3 GPUs %v; want equal", one, three)
	}
}

func TestTrainingLossDecreases(t *testing.T) {
	m := NewModel(2, 6, 3)
	tr := NewTrainer(m, DefaultTrainConfig(), 9)
	src := vidgen.NewSource(vidgen.Podcast, 96, 96, 13, 60)
	trainPairs(tr, src, 2, 48, 6)
	first := tr.Epoch()
	var last float64
	for e := 0; e < 5; e++ {
		last = tr.Epoch()
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestEpochOnEmptyDataset(t *testing.T) {
	m := NewModel(2, 4, 1)
	tr := NewTrainer(m, DefaultTrainConfig(), 1)
	if l := tr.Epoch(); l != 0 {
		t.Fatalf("empty epoch loss %v", l)
	}
}

func TestAddSamplePanicsOnMismatch(t *testing.T) {
	m := NewModel(2, 4, 1)
	tr := NewTrainer(m, DefaultTrainConfig(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.AddSample(frame.New(10, 10), frame.New(30, 30))
}

func TestSampleRingBuffer(t *testing.T) {
	m := NewModel(2, 4, 1)
	cfg := DefaultTrainConfig()
	cfg.MaxSamples = 5
	tr := NewTrainer(m, cfg, 1)
	for i := 0; i < 9; i++ {
		hr := frame.New(8, 8)
		tr.AddSample(hr.Downscale(2), hr)
	}
	if tr.SampleCount() != 5 {
		t.Fatalf("ring buffer holds %d, want 5", tr.SampleCount())
	}
}

func TestRecencySamplingFavoursRecent(t *testing.T) {
	m := NewModel(2, 4, 1)
	cfg := DefaultTrainConfig()
	cfg.RecencyK = 10
	cfg.RecencyWeight = 4
	tr := NewTrainer(m, cfg, 77)
	for i := 0; i < 100; i++ {
		hr := frame.New(8, 8)
		tr.AddSample(hr.Downscale(2), hr)
	}
	recent := 0
	const draws = 5000
	for i := 0; i < draws; i++ {
		if tr.pick() >= 90 {
			recent++
		}
	}
	// Expected: 40/(90+40) ≈ 0.31 of draws from the last 10 samples,
	// vs 0.10 under uniform sampling.
	fracpart := float64(recent) / draws
	if fracpart < 0.2 || fracpart > 0.45 {
		t.Fatalf("recent fraction %.2f outside [0.2,0.45]", fracpart)
	}
}

func TestContentAwareBeatsGeneric(t *testing.T) {
	// The key premise of content-aware SR (§3): a model trained on the
	// stream itself beats a model trained on a generic dataset.
	const scale = 2
	stream := vidgen.NewSource(vidgen.LeagueOfLegends, 128, 96, 31, 60)

	online := NewModel(scale, 6, 1)
	trOn := NewTrainer(online, DefaultTrainConfig(), 2)
	trainPairs(trOn, stream, scale, 48, 8)
	for e := 0; e < 6; e++ {
		trOn.Epoch()
	}

	generic := NewModel(scale, 6, 1)
	PretrainOnDataset(generic, vidgen.GenericDataset(8, 48, 99), 6, 48, DefaultTrainConfig(), 3)

	hr := stream.FrameAt(11.3)
	lr := hr.Downscale(scale)
	pOn := metrics.PSNR(hr, online.SuperResolve(lr))
	pGen := metrics.PSNR(hr, generic.SuperResolve(lr))
	if pOn <= pGen {
		t.Fatalf("online %.2f dB should beat generic %.2f dB on own content", pOn, pGen)
	}
}

func TestProcessorMatchesSingleModel(t *testing.T) {
	m := NewModel(2, 6, 5)
	tr := NewTrainer(m, DefaultTrainConfig(), 5)
	src := vidgen.NewSource(vidgen.Sports, 96, 96, 41, 60)
	trainPairs(tr, src, 2, 48, 4)
	tr.Epoch()

	proc := NewProcessor(m, 3, RTX2080Ti())
	lr := src.FrameAt(3.3).Downscale(2)
	got, lat := proc.Process(lr)
	want := m.SuperResolve(lr)
	if lat <= 0 {
		t.Fatal("latency must be positive")
	}
	diff := 0
	for i := range got.Pix {
		if got.Pix[i] != want.Pix[i] {
			diff++
		}
	}
	if diff != 0 {
		t.Fatalf("3-GPU processor output differs from the model's whole-frame output at %d pixels", diff)
	}
}

func TestProcessorSyncPicksUpTraining(t *testing.T) {
	m := NewModel(2, 6, 5)
	proc := NewProcessor(m, 1, RTX2080Ti())
	src := vidgen.NewSource(vidgen.FoodCooking, 96, 96, 43, 60)
	lr := src.FrameAt(1).Downscale(2)
	before, _ := proc.Process(lr)

	tr := NewTrainer(m, DefaultTrainConfig(), 5)
	trainPairs(tr, src, 2, 48, 4)
	for e := 0; e < 4; e++ {
		tr.Epoch()
	}
	stale, _ := proc.Process(lr)
	for i := range before.Pix {
		if before.Pix[i] != stale.Pix[i] {
			t.Fatal("processor picked up weights without Sync")
		}
	}
	proc.Sync(m)
	after, _ := proc.Process(lr)
	same := true
	for i := range before.Pix {
		if before.Pix[i] != after.Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("Sync did not refresh processor weights")
	}
}

func TestDeviceInferenceTimes(t *testing.T) {
	d := RTX2080Ti()
	// Table 2 shape: all single-GPU 1080p-target configs land in ~15-35 ms,
	// bilinear-only 720p->1080p is much cheaper, and 4K on 3 GPUs is
	// real-time (< 33 ms).
	t270 := d.InferenceTime(480, 270, 4, 1)
	t360 := d.InferenceTime(640, 360, 3, 1)
	t540 := d.InferenceTime(960, 540, 2, 1)
	tBil := d.InferenceTime(1280, 720, 1, 1)
	t4k3 := d.InferenceTime(1280, 720, 3, 3)
	for name, v := range map[string]time.Duration{"270p": t270, "360p": t360, "540p": t540} {
		if v < 10*time.Millisecond || v > 40*time.Millisecond {
			t.Fatalf("%s inference %v outside Table 2 range", name, v)
		}
	}
	if tBil >= t270 {
		t.Fatalf("bilinear %v should be cheaper than SR %v", tBil, t270)
	}
	if t4k3 > 33*time.Millisecond {
		t.Fatalf("3-GPU 720p->4K %v not real-time", t4k3)
	}
	// Multi-GPU must beat single-GPU for 4K.
	if single := d.InferenceTime(1280, 720, 3, 1); t4k3 >= single {
		t.Fatalf("3 GPUs (%v) not faster than 1 (%v)", t4k3, single)
	}
}

func TestDeviceEpochTime(t *testing.T) {
	d := RTX2080Ti()
	// Paper-scale epoch: 50 iters x batch 64 on 120x120 patches should take
	// seconds (the paper uses 5 s epochs).
	e1 := d.EpochTime(50, 64, 120*120, 3, 1)
	if e1 < time.Second || e1 > 20*time.Second {
		t.Fatalf("epoch time %v outside plausible range", e1)
	}
	e3 := d.EpochTime(50, 64, 120*120, 3, 3)
	if e3 >= e1 {
		t.Fatal("3-GPU training not faster")
	}
	if math.Abs(float64(e1)/float64(e3)-3) > 1 {
		t.Fatalf("3-GPU speedup %.1fx far from linear", float64(e1)/float64(e3))
	}
}

func TestPersistentLearningImproves(t *testing.T) {
	// Persistent online learning (§6.1): starting session 2 from session 1's
	// model should beat starting from scratch, early in the session.
	const scale = 2
	prev := vidgen.NewSource(vidgen.WorldOfWarcraft, 128, 96, 51, 60)
	cur := vidgen.NewSource(vidgen.WorldOfWarcraft, 128, 96, 52, 60)

	persistent := NewModel(scale, 6, 1)
	trP := NewTrainer(persistent, DefaultTrainConfig(), 2)
	trainPairs(trP, prev, scale, 48, 8)
	for e := 0; e < 6; e++ {
		trP.Epoch()
	}
	// Short warm-up on current session for both models.
	fresh := NewModel(scale, 6, 1)
	trF := NewTrainer(fresh, DefaultTrainConfig(), 2)
	trP2 := NewTrainer(persistent, DefaultTrainConfig(), 2)
	trainPairs(trF, cur, scale, 48, 2)
	trainPairs(trP2, cur, scale, 48, 2)
	trF.Epoch()
	trP2.Epoch()

	hr := cur.FrameAt(6.1)
	lr := hr.Downscale(scale)
	pF := metrics.PSNR(hr, fresh.SuperResolve(lr))
	pP := metrics.PSNR(hr, persistent.SuperResolve(lr))
	if pP <= pF-0.05 {
		t.Fatalf("persistent %.2f dB should be >= fresh %.2f dB early in session", pP, pF)
	}
}
