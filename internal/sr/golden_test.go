package sr

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"

	"livenas/internal/frame"
	"livenas/internal/vidgen"
)

// goldenHasher accumulates a canonical little-endian encoding of results.
type goldenHasher struct{ b []byte }

func (h *goldenHasher) u64(v uint64)  { h.b = binary.LittleEndian.AppendUint64(h.b, v) }
func (h *goldenHasher) f64(v float64) { h.u64(math.Float64bits(v)) }
func (h *goldenHasher) f32(v float32) {
	h.b = binary.LittleEndian.AppendUint32(h.b, math.Float32bits(v))
}
func (h *goldenHasher) frame(f *frame.Frame, lat time.Duration) {
	h.u64(uint64(f.W))
	h.u64(uint64(f.H))
	h.b = append(h.b, f.Pix...)
	h.u64(uint64(lat))
}
func (h *goldenHasher) sum() string { return fmt.Sprintf("%x", sha256.Sum256(h.b)) }

// goldenDigests trains a small model on gpus data-parallel devices and
// serves one frame through a gpus-device Processor on every inference
// path. It returns one digest over the trainer's epoch losses, final
// weights and calibration statistics, and one over the processor's output
// frames and simulated latencies (f32, int8 behind the quality gate, and
// the anytime scheduler at a 3 ms and at a mixed budget).
func goldenDigests(gpus int) (train, infer string) {
	m := NewModel(2, 6, 5)
	cfg := DefaultTrainConfig()
	cfg.GPUs = gpus
	cfg.ItersPerEpoch = 4
	tr := NewTrainer(m, cfg, 5)
	trainPairs(tr, vidgen.NewSource(vidgen.Sports, 96, 96, 41, 60), 2, 48, 6)
	var th goldenHasher
	for e := 0; e < 3; e++ {
		th.f64(tr.Epoch())
	}
	for _, p := range m.Params() {
		for _, w := range p.W {
			th.f32(w)
		}
	}
	for _, c := range m.calibStats() {
		th.f32(c)
	}

	d := RTX2080Ti()
	src := vidgen.NewSource(vidgen.JustChatting, 384, 288, 41, 60)
	hr := src.FrameAt(4.4)
	lr := hr.Downscale(2)
	proc := NewProcessor(m, gpus, d)
	var ih goldenHasher
	ih.frame(proc.Process(lr))
	proc.EnableQuant(m, 0.5)
	proc.ObserveGatePatch(lr.Crop(0, 0, 48, 48), hr.Crop(0, 0, 96, 96))
	gap, _ := proc.QuantGap()
	ih.f64(gap)
	ih.frame(proc.Process(lr))
	// The mixed budget leaves room past the fixed transfer and stitch costs
	// for the int8 plan plus some f32 upgrades.
	cI := d.PatchComputeNS(lr.W, lr.H, 2, true)
	cF := d.PatchComputeNS(lr.W, lr.H, 2, false)
	mixed := time.Duration(d.TransferNS + float64(gpus-1)*d.StitchNS + cI + 0.4*(cF-cI))
	for _, budget := range []time.Duration{3 * time.Millisecond, mixed} {
		proc.SetAnytimeBudget(budget)
		ih.frame(proc.Process(lr))
	}
	return th.sum(), ih.sum()
}

// TestGoldenDigests pins training and inference results across commits for
// one, two and three simulated GPUs. Any change to the numerics of
// training, calibration, quantization, the anytime planner or the device
// cost model shows up here; such a change must update these digests
// deliberately and say why.
func TestGoldenDigests(t *testing.T) {
	want := map[int][2]string{
		1: {"785adc739ece336e4571211993244cbe342c671fbf962246206a6b1777e06f57", "aca8f72be845bf136a23a0a9092d2c304bfd908e89177c9dd1b10dd4b2842bcc"},
		2: {"3dc90b2a8be29d9df5486828551410a6092322ab2410649f9ce73690ecedb558", "444d4284ecbdfb376db827d845fff89f1cec2b47c23918130482ac9649d71052"},
		3: {"e19cd5e28b4a85ce07f462f2fd3637374b373d8025098fc056148cb6cf1ebf0c", "ea94ee22c906103491db360e2b467b5c63006d70772bf0f0c19600f232641a4a"},
	}
	for _, gpus := range []int{1, 2, 3} {
		train, infer := goldenDigests(gpus)
		if w := want[gpus]; train != w[0] || infer != w[1] {
			t.Errorf("gpus=%d: digests (train %s, infer %s), want (%s, %s)", gpus, train, infer, w[0], w[1])
		}
	}
}
