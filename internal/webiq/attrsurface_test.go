package webiq

import (
	"context"
	"math"
	"testing"
)

// TestFigure5WorkedExample replays the paper's Figure 5 end to end: the
// Airline classifier trained from the validation vectors shown in
// Figure 5.c must reproduce the thresholds of 5.f and the smoothed
// probabilities of 5.h.
func TestFigure5WorkedExample(t *testing.T) {
	phrases := []string{"airlines such as", "airline is"}
	pos := [][]float64{
		{.5, .3}, // Air Canada
		{.8, .1}, // American
		{.6, .3}, // Delta
		{.9, .4}, // United
	}
	neg := [][]float64{
		{.4, .03}, // Economy
		{.2, .05}, // First Class
		{.1, .06}, // Jan
		{.3, .09}, // 1
	}
	c := trainFromScores(phrases, pos, neg)

	// Figure 5.f: t1 = .45, t2 = .075.
	if math.Abs(c.Thresholds[0]-0.45) > 1e-9 {
		t.Errorf("t1 = %v, want .45", c.Thresholds[0])
	}
	if math.Abs(c.Thresholds[1]-0.075) > 1e-9 {
		t.Errorf("t2 = %v, want .075", c.Thresholds[1])
	}

	// Figure 5.h: priors and class conditionals.
	if c.PPos != 0.5 || c.PNeg != 0.5 {
		t.Errorf("priors = %v/%v, want 1/2 each", c.PPos, c.PNeg)
	}
	check := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("P(f1=1|+)", c.PF[0][1][1], 3.0/4)
	check("P(f1=0|+)", c.PF[0][0][1], 1.0/4)
	check("P(f1=1|-)", c.PF[0][1][0], 1.0/4)
	check("P(f1=0|-)", c.PF[0][0][0], 3.0/4)
	check("P(f2=1|+)", c.PF[1][1][1], 3.0/4)
	check("P(f2=0|+)", c.PF[1][0][1], 1.0/4)
	check("P(f2=1|-)", c.PF[1][1][0], 1.0/2)
	check("P(f2=0|-)", c.PF[1][0][0], 1.0/2)
}

func TestClassifierPredicts(t *testing.T) {
	phrases := []string{"p1", "p2"}
	pos := [][]float64{{.5, .3}, {.8, .1}, {.6, .3}, {.9, .4}}
	neg := [][]float64{{.4, .03}, {.2, .05}, {.1, .06}, {.3, .09}}
	c := trainFromScores(phrases, pos, neg)

	// An instance-like vector (high scores on both phrases).
	if p := c.ProbPositive([]float64{.7, .2}); p <= 0.5 {
		t.Errorf("instance-like P(+) = %v, want > .5", p)
	}
	// A non-instance-like vector.
	if p := c.ProbPositive([]float64{.05, .01}); p >= 0.5 {
		t.Errorf("non-instance-like P(+) = %v, want < .5", p)
	}
}

func TestClassifierFeatures(t *testing.T) {
	c := &Classifier{Thresholds: []float64{0.45, 0.075}}
	got := c.Features([]float64{0.5, 0.05})
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("features = %v, want [1 0]", got)
	}
	// Equal to threshold is not above it.
	got = c.Features([]float64{0.45, 0.075})
	if got[0] != 0 || got[1] != 0 {
		t.Errorf("boundary features = %v, want [0 0]", got)
	}
}

func TestBestThresholdSeparable(t *testing.T) {
	vals := []float64{.2, .4, .5, .8}
	labels := []bool{false, false, true, true}
	if got := bestThreshold(vals, labels); math.Abs(got-0.45) > 1e-9 {
		t.Errorf("threshold = %v, want .45", got)
	}
}

func TestBestThresholdAllEqual(t *testing.T) {
	vals := []float64{.3, .3, .3}
	labels := []bool{true, false, true}
	got := bestThreshold(vals, labels)
	if got != .3 {
		t.Errorf("degenerate threshold = %v", got)
	}
}

func TestTrainClassifierTooFewExamples(t *testing.T) {
	v := NewValidator(&stubEngine{}, DefaultConfig())
	if _, err := trainClassifier(context.Background(), v, "airline", []string{"Delta"}, []string{"Economy", "Jan"}); err == nil {
		t.Error("want error with a single positive example")
	}
}
