package metrics

import (
	"math/bits"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistCountMeanMax(t *testing.T) {
	h := NewHist()
	h.Record(1 * time.Microsecond)
	h.Record(3 * time.Microsecond)
	h.Record(2 * time.Microsecond)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != 2*time.Microsecond {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Max() != 3*time.Microsecond {
		t.Fatalf("max = %v", h.Max())
	}
}

func TestHistQuantileUpperBound(t *testing.T) {
	h := NewHist()
	for i := 0; i < 99; i++ {
		h.Record(time.Microsecond)
	}
	h.Record(time.Second)
	p50 := h.Quantile(0.5)
	if p50 < time.Microsecond || p50 > 4*time.Microsecond {
		t.Fatalf("p50 = %v, want ~1-2µs bucket edge", p50)
	}
	p999 := h.Quantile(0.999)
	if p999 < time.Second/2 {
		t.Fatalf("p99.9 = %v, should reflect the 1s outlier", p999)
	}
}

func TestHistQuantileEmptyAndClamped(t *testing.T) {
	h := NewHist()
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	h.Record(time.Millisecond)
	if h.Quantile(-1) == 0 && h.Quantile(2) == 0 {
		t.Fatal("clamped quantiles should see the observation")
	}
}

func TestHistQuantileTopBucketNoOverflow(t *testing.T) {
	// Regression: observations in the top buckets used to compute the
	// bucket upper edge as 1<<63 / 1<<64, overflowing int64 and reporting
	// a nonsensical (zero or negative) quantile for multi-year durations.
	h := NewHist()
	d := time.Duration(int64(1) << 62)
	h.Record(d)
	for _, q := range []float64{0.5, 0.99, 1} {
		if got := h.Quantile(q); got != d {
			t.Fatalf("Quantile(%v) = %v, want %v", q, got, d)
		}
	}
	h.Record(time.Microsecond)
	if got := h.Quantile(0.99); got != d {
		t.Fatalf("Quantile(0.99) with outlier = %v, want %v", got, d)
	}
}

func TestHistQuantileClampedToObservedMax(t *testing.T) {
	// A bucket's upper edge can overshoot everything actually observed;
	// the reported bound must clamp to Max().
	h := NewHist()
	h.Record(5 * time.Microsecond) // bucket edge would be 8.192µs
	for _, q := range []float64{0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 5*time.Microsecond {
			t.Fatalf("Quantile(%v) = %v, want the observed max 5µs", q, got)
		}
	}
}

func TestHistNegativeRecord(t *testing.T) {
	h := NewHist()
	h.Record(-time.Second)
	if h.Count() != 1 || h.Max() != 0 {
		t.Fatalf("negative record mishandled: count=%d max=%v", h.Count(), h.Max())
	}
}

func TestHistConcurrent(t *testing.T) {
	h := NewHist()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Record(time.Duration(j) * time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
}

func TestLeadingZerosMatchesBits(t *testing.T) {
	f := func(x uint64) bool {
		return leadingZeros(x) == bits.LeadingZeros64(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if leadingZeros(0) != 64 {
		t.Fatal("leadingZeros(0) != 64")
	}
}

func TestQuantileBoundsObservation(t *testing.T) {
	// Property: for a single observation d, any quantile's upper bound is
	// >= d and <= 2d (bucket edge).
	f := func(v uint32) bool {
		d := time.Duration(v) + 1
		h := NewHist()
		h.Record(d)
		q := h.Quantile(0.5)
		return q >= d && q <= 2*d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("T1: demo", "engine", "tput", "p99")
	tb.Row("aurora", 1234.0, 250*time.Microsecond)
	tb.Row("mono", 9.5, 2*time.Second)
	s := tb.String()
	for _, want := range []string{"T1: demo", "engine", "aurora", "1.2k", "250.00µs", "2.00s"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table output missing %q:\n%s", want, s)
		}
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("table has %d lines, want 5:\n%s", len(lines), s)
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[time.Duration]string{
		0:                       "0",
		500 * time.Nanosecond:   "500ns",
		1500 * time.Nanosecond:  "1.50µs",
		2500 * time.Microsecond: "2.50ms",
		3 * time.Second:         "3.00s",
	}
	for d, want := range cases {
		if got := FormatDuration(d); got != want {
			t.Errorf("FormatDuration(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512B",
		2048:    "2.00KiB",
		3 << 20: "3.00MiB",
		5 << 30: "5.00GiB",
	}
	for n, want := range cases {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestSummarize(t *testing.T) {
	ds := []time.Duration{5, 1, 4, 2, 3}
	s := Summarize(ds)
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 {
		t.Fatalf("summary = %+v", s)
	}
	// Input must not be mutated.
	if ds[0] != 5 {
		t.Fatal("Summarize mutated its input")
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatal("nil input should give zero summary")
	}
}

func TestSummarizeQuantileRanks(t *testing.T) {
	// Regression: truncating the fractional rank made P50 of two samples
	// return the minimum and P99 of 100 samples return the 98th-ranked
	// value, hiding the tail. Ceiling nearest-rank pins these.
	seq := func(n int) []time.Duration {
		ds := make([]time.Duration, n)
		for i := range ds {
			ds[i] = time.Duration(i + 1)
		}
		return ds
	}
	cases := []struct {
		name     string
		in       []time.Duration
		p50, p99 time.Duration
	}{
		{"n=1", seq(1), 1, 1},
		{"n=2", seq(2), 2, 2}, // trunc gave P50 = 1 (the min)
		{"n=3", seq(3), 2, 3},
		{"n=100", seq(100), 51, 100}, // trunc gave P99 = 99 (98th-ranked)
	}
	for _, tc := range cases {
		s := Summarize(tc.in)
		if s.P50 != tc.p50 || s.P99 != tc.p99 {
			t.Errorf("%s: P50=%v P99=%v, want P50=%v P99=%v",
				tc.name, s.P50, s.P99, tc.p50, tc.p99)
		}
	}
}

func TestHistEmptyMeanIsZero(t *testing.T) {
	var h Hist
	if h.Mean() != 0 || h.Count() != 0 {
		t.Fatalf("empty histogram: mean %v, count %d", h.Mean(), h.Count())
	}
}

// Table cells render floats compactly: millions as M, thousands as k, one
// decimal from ten up, three below.
func TestTableFormatsFloats(t *testing.T) {
	cases := map[float64]string{
		0:     "0",
		2.5e6: "2.50M",
		-3e6:  "-3.00M",
		1234:  "1.2k",
		-1500: "-1.5k",
		12.34: "12.3",
		0.125: "0.125",
		-0.5:  "-0.500",
	}
	for v, want := range cases {
		if got := formatCell(v); got != want {
			t.Errorf("formatCell(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestHistMergeEqualsRecordingBoth(t *testing.T) {
	a, b, both := NewHist(), NewHist(), NewHist()
	for i, d := range []time.Duration{3, 900, 5 * time.Millisecond, 40 * time.Microsecond, 0} {
		h := a
		if i%2 == 1 {
			h = b
		}
		h.Record(d)
		both.Record(d)
	}
	a.Merge(b)
	if a.Count() != both.Count() || a.Mean() != both.Mean() || a.Max() != both.Max() {
		t.Fatalf("merged count/mean/max %d/%v/%v, want %d/%v/%v",
			a.Count(), a.Mean(), a.Max(), both.Count(), both.Mean(), both.Max())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
		if a.Quantile(q) != both.Quantile(q) {
			t.Fatalf("q%.2f: merged %v, want %v", q, a.Quantile(q), both.Quantile(q))
		}
	}
}
