package trainsim

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

func TestLossCurveDecreasesOnAverage(t *testing.T) {
	c := CurveFor(ResNet50, 1)
	early := c.LossAt(0)
	mid := c.LossAt(int64(c.DecayImages))
	late := c.LossAt(int64(10 * c.DecayImages))
	if !(early > mid && mid > late) {
		t.Fatalf("loss not decreasing: %.3f %.3f %.3f", early, mid, late)
	}
	// Converges near the floor.
	if late > c.FloorLoss+3*c.NoiseAmplitude {
		t.Fatalf("late loss %.3f far above floor %.3f", late, c.FloorLoss)
	}
}

func TestLossCurveDeterministic(t *testing.T) {
	c := CurveFor(VGG16, 7)
	if c.LossAt(12345) != c.LossAt(12345) {
		t.Fatal("loss not deterministic")
	}
	c2 := CurveFor(VGG16, 8)
	if c.LossAt(12345) == c2.LossAt(12345) {
		t.Fatal("seed has no effect on noise")
	}
}

func TestHeavierModelsConvergeSlowerPerImage(t *testing.T) {
	vgg := CurveFor(VGG16, 1)
	goog := CurveFor(GoogLeNet, 1)
	if vgg.DecayImages <= goog.DecayImages {
		t.Fatalf("VGG decay %.0f should exceed GoogLeNet %.0f", vgg.DecayImages, goog.DecayImages)
	}
}

// Property: loss stays within [floor - noise, init + noise] for any
// progress value.
func TestQuickLossBounded(t *testing.T) {
	c := CurveFor(InceptionV3, 3)
	f := func(images uint32) bool {
		l := c.LossAt(int64(images))
		return l >= c.FloorLoss-c.NoiseAmplitude && l <= c.InitLoss+c.NoiseAmplitude
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLossAtNegativeClamps(t *testing.T) {
	c := CurveFor(ResNet50, 1)
	if got, want := c.LossAt(-5), c.LossAt(0); got != want {
		t.Fatalf("negative progress: %.3f != %.3f", got, want)
	}
}

// TestMetricPointAppendJSONMatchesMarshal pins the learner's metrics line
// to json.Marshal's bytes, across the float formats' cutoffs and for
// arbitrary values.
func TestMetricPointAppendJSONMatchesMarshal(t *testing.T) {
	check := func(p MetricPoint) bool {
		got, gotErr := p.AppendJSON([]byte("prefix"))
		want, wantErr := json.Marshal(p)
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("%+v: error %v, json.Marshal's %v", p, gotErr, wantErr)
			return false
		}
		if gotErr == nil && string(got) != "prefix"+string(want) {
			t.Errorf("%+v: %s, json.Marshal writes %s", p, got, want)
			return false
		}
		return true
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1.5, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, -1e21,
		123456789.125, 1526515201.5, math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(-1)} {
		check(MetricPoint{ClusterSeconds: f, Images: -7, Loss: f / 3, Restarts: 2})
	}
	if err := quick.Check(func(t, loss float64, images int64, restarts int) bool {
		return check(MetricPoint{ClusterSeconds: t, Images: images, Loss: loss, Restarts: restarts})
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
