// Package metrics provides the small measurement toolkit used by the
// experiment harness: log-bucketed latency histograms and plain-text table
// rendering for paper-style result output.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// Hist is a log2-bucketed latency histogram. It is safe for concurrent
// recording; quantile reads take a snapshot.
type Hist struct {
	buckets [64]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// NewHist returns an empty histogram.
func NewHist() *Hist { return &Hist{} }

func bucketOf(d time.Duration) int {
	n := int64(d)
	if n <= 0 {
		return 0
	}
	return 63 - int(leadingZeros(uint64(n)))
}

func leadingZeros(x uint64) int {
	if x == 0 {
		return 64
	}
	n := 0
	if x <= 0x00000000FFFFFFFF {
		n += 32
		x <<= 32
	}
	if x <= 0x0000FFFFFFFFFFFF {
		n += 16
		x <<= 16
	}
	if x <= 0x00FFFFFFFFFFFFFF {
		n += 8
		x <<= 8
	}
	if x <= 0x0FFFFFFFFFFFFFFF {
		n += 4
		x <<= 4
	}
	if x <= 0x3FFFFFFFFFFFFFFF {
		n += 2
		x <<= 2
	}
	if x <= 0x7FFFFFFFFFFFFFFF {
		n++
	}
	return n
}

// Record adds one observation.
func (h *Hist) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Merge adds o's observations to h, as if each had been recorded into h.
func (h *Hist) Merge(o *Hist) {
	for i := range o.buckets {
		h.buckets[i].Add(o.buckets[i].Load())
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	for m := o.max.Load(); ; {
		cur := h.max.Load()
		if m <= cur || h.max.CompareAndSwap(cur, m) {
			break
		}
	}
}

// Count reports the number of observations.
func (h *Hist) Count() int64 { return h.count.Load() }

// Mean reports the mean observation.
func (h *Hist) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max reports the largest observation.
func (h *Hist) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile reports an upper bound for quantile q in [0,1] using bucket
// upper edges (log2 resolution, adequate for order-of-magnitude tables).
func (h *Hist) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= target {
			// Clamp the bucket's upper edge to the observed maximum:
			// besides tightening the bound, this avoids the shift
			// overflowing for the top buckets (1<<63, 1<<64).
			max := h.max.Load()
			if i >= 62 {
				return time.Duration(max)
			}
			edge := int64(1) << uint(i+1)
			if edge > max {
				return time.Duration(max)
			}
			return time.Duration(edge)
		}
	}
	return h.Max()
}

// Table renders aligned plain-text tables in the style of the tables the
// experiments print (one header row, any number of data rows).
type Table struct {
	Title  string
	Header []string
	rows   [][]string
	mu     sync.Mutex
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Row appends a data row; values are formatted with %v, durations and
// floats get compact human formatting.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = formatCell(c)
	}
	t.mu.Lock()
	t.rows = append(t.rows, row)
	t.mu.Unlock()
}

func formatCell(c any) string {
	switch v := c.(type) {
	case time.Duration:
		return FormatDuration(v)
	case float64:
		return formatFloat(v)
	case string:
		return v
	default:
		return fmt.Sprintf("%v", v)
	}
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case math.Abs(v) >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	case math.Abs(v) >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// FormatDuration renders a duration with three significant digits and an
// appropriate unit, keeping tables narrow.
func FormatDuration(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// FormatBytes renders a byte count with binary units.
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// String renders the table.
func (t *Table) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if n := utf8.RuneCountInString(c); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	var b []byte
	if t.Title != "" {
		b = append(b, t.Title...)
		b = append(b, '\n')
	}
	appendRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b = append(b, ' ', ' ')
			}
			b = append(b, c...)
			if i < len(cells)-1 {
				for p := utf8.RuneCountInString(c); p < widths[i]; p++ {
					b = append(b, ' ')
				}
			}
		}
		b = append(b, '\n')
	}
	appendRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = repeat('-', widths[i])
	}
	appendRow(sep)
	for _, r := range t.rows {
		appendRow(r)
	}
	return string(b)
}

func repeat(ch byte, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = ch
	}
	return string(b)
}

// Summary computes basic order statistics over a slice of durations,
// convenient for one-shot experiment reporting.
type Summary struct {
	N              int
	Mean, P50, P99 time.Duration
	Min, Max       time.Duration
}

// Summarize computes a Summary (sorting a copy of the input).
func Summarize(ds []time.Duration) Summary {
	if len(ds) == 0 {
		return Summary{}
	}
	cp := make([]time.Duration, len(ds))
	copy(cp, ds)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	var sum time.Duration
	for _, d := range cp {
		sum += d
	}
	// Nearest-rank with ceiling: truncation would make P99 of 100
	// samples miss the tail (index 98) and P50 of 2 samples return the
	// minimum. Rounding the fractional index up keeps small-N quantiles
	// an upper bound.
	idx := func(q float64) time.Duration {
		i := int(math.Ceil(q * float64(len(cp)-1)))
		if i < 0 {
			i = 0
		}
		if i > len(cp)-1 {
			i = len(cp) - 1
		}
		return cp[i]
	}
	return Summary{
		N:    len(cp),
		Mean: sum / time.Duration(len(cp)),
		P50:  idx(0.50),
		P99:  idx(0.99),
		Min:  cp[0],
		Max:  cp[len(cp)-1],
	}
}
