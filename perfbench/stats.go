package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of
// samples, sorting them in place. Exact, unlike the engine's power-of-two
// histogram buckets, which is why every end-to-end percentile comes from
// here. It returns 0 for no samples.
func percentile(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(samples, func(i, j int) bool { return samples[i] < samples[j] }) {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	}
	rank := int(math.Ceil(q * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	return samples[rank-1]
}

// quantile returns the q-quantile (0 <= q <= 1) of xs, interpolating
// linearly between the two nearest ranks, without modifying xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// series is one sample line of the Prometheus text format.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is a parsed /metrics exposition.
type scrape []series

// parseMetrics reads the Prometheus text exposition format (version
// 0.0.4): comment lines are skipped, each other line is
// `name{label="v",...} value`. Label values may contain escaped quotes,
// backslashes and newlines.
func parseMetrics(r io.Reader) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		s, err := parseSeries(text)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parseSeries(text string) (series, error) {
	s := series{labels: map[string]string{}}
	i := strings.IndexAny(text, "{ ")
	if i <= 0 {
		return s, fmt.Errorf("no value in %q", text)
	}
	s.name = text[:i]
	rest := text[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, " ,")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, `="`)
			if eq <= 0 {
				return s, fmt.Errorf("malformed labels in %q", text)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			closed := false
			for j := 0; j < len(rest); j++ {
				c := rest[j]
				if c == '\\' && j+1 < len(rest) {
					j++
					switch rest[j] {
					case 'n':
						val.WriteByte('\n')
					default:
						val.WriteByte(rest[j])
					}
					continue
				}
				if c == '"' {
					rest = rest[j+1:]
					closed = true
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				return s, fmt.Errorf("unterminated label value in %q", text)
			}
			s.labels[key] = val.String()
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("no value in %q", text)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", text, err)
	}
	s.value = v
	return s, nil
}

// sum adds the values of every series named name whose labels include
// all of match.
func (sc scrape) sum(name string, match map[string]string) float64 {
	var total float64
	sc.each(name, match, func(s series) { total += s.value })
	return total
}

// max returns the largest value among the matching series (0 if none).
func (sc scrape) max(name string, match map[string]string) float64 {
	m, any := 0.0, false
	sc.each(name, match, func(s series) {
		if !any || s.value > m {
			m, any = s.value, true
		}
	})
	return m
}

func (sc scrape) each(name string, match map[string]string, fn func(series)) {
next:
	for _, s := range sc {
		if s.name != name {
			continue
		}
		for k, v := range match {
			if s.labels[k] != v {
				continue next
			}
		}
		fn(s)
	}
}

// histDelta is the Sum/Count change of one engine histogram between two
// scrapes. Only Sum and Count are read: the bucket bounds are powers of
// two, so a quantile derived from them can be off by up to 2x.
type histDelta struct{ sum, count float64 }

func deltaHist(before, after scrape, name string, match map[string]string) histDelta {
	return histDelta{
		sum:   after.sum(name+"_sum", match) - before.sum(name+"_sum", match),
		count: after.sum(name+"_count", match) - before.sum(name+"_count", match),
	}
}

func (h histDelta) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count
}
