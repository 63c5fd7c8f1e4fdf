package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promText is one scrape of verdictd's Prometheus text exposition:
// every sample line keyed by its series ("name" or "name{labels}"),
// counters, gauges and histogram _bucket/_sum/_count alike.
type promText map[string]float64

// parseProm reads the text exposition format; comment lines are
// skipped and a malformed sample line is an error.
func parseProm(r io.Reader) (promText, error) {
	out := promText{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:cut]] = v
	}
	return out, sc.Err()
}

// scrape fetches and parses base's /metrics.
func scrape(c *http.Client, base string) (promText, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// sum adds every series of metric name whose labels contain all the
// given label="value" pairs.
func (p promText) sum(name string, labels ...string) float64 {
	t := 0.0
	for series, v := range p {
		base, lbls := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			base, lbls = series[:i], series[i:]
		}
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lbls, l) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// diff returns after-minus-before for every series in after; series
// absent before count from zero. Gauges diff too; read them from the
// after scrape directly.
func diffProm(before, after promText) promText {
	out := promText{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// add sums scrapes of several nodes.
func addProm(ps ...promText) promText {
	out := promText{}
	for _, p := range ps {
		for k, v := range p {
			out[k] += v
		}
	}
	return out
}

// histMeanMS is a histogram's mean in ms from its _sum (seconds) and
// _count, over the series matching labels.
func (p promText) histMeanMS(name string, labels ...string) (float64, int) {
	n := p.sum(name+"_count", labels...)
	if n == 0 {
		return 0, 0
	}
	return 1000 * p.sum(name+"_sum", labels...) / n, int(n)
}
