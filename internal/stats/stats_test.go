package stats_test

import (
	"testing"
	"time"

	"repro/internal/stats"
)

func TestCounter(t *testing.T) {
	c := stats.NewCounter()
	c.Add("msgs", 3)
	c.Add("msgs", 2)
	c.Add("objs", 1)
	if c.Get("msgs") != 5 || c.Get("objs") != 1 || c.Get("none") != 0 {
		t.Fatal("counter values wrong")
	}
	labels := c.Labels()
	if len(labels) != 2 || labels[0] != "msgs" || labels[1] != "objs" {
		t.Fatalf("labels = %v", labels)
	}
}

func TestRate(t *testing.T) {
	if r := stats.Rate(100, time.Second); r != 100 {
		t.Fatalf("rate = %f", r)
	}
	if r := stats.Rate(100, 0); r != 0 {
		t.Fatalf("zero-interval rate = %f", r)
	}
}
