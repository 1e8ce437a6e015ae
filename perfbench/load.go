package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/friendseeker/friendseeker/internal/checkin"
	"github.com/friendseeker/friendseeker/internal/ingest"
)

// lateAfter is the dispatch lag past which a request counts as late: the
// generator, not the server, delayed it.
const lateAfter = 5 * time.Millisecond

// shot is one scheduled request and its outcome. Latency runs from the
// due instant, so time a request spent waiting for a free connection, or
// behind a late generator, is charged to it.
type shot struct {
	due   time.Time
	lag   time.Duration // dispatch time minus due time
	end   time.Time
	err   error
	pairs []checkin.Pair
	recs  []ingest.Record
	// Response of a read.
	model     string
	decisions []bool
}

func (s *shot) latency() time.Duration { return s.end.Sub(s.due) }

// openLoop fires requests at fixed spacing 1/rate from start until stop
// reports true for a due instant. A single dispatcher sleeps until each
// due instant and hands the request to one of workers senders through an
// unbounded-in-practice queue, so a slow server makes requests queue on
// the client instead of stretching the schedule. prepare fills the
// request before it is due; send performs it.
func openLoop(start time.Time, rate float64, workers int, stop func(due time.Time) bool,
	prepare func(i int, s *shot) bool, send func(s *shot) error) []*shot {
	interval := float64(time.Second) / rate
	// Larger than any phase's request count (at most ~10^4), so the
	// dispatcher never blocks on a slow server.
	q := make(chan *shot, 1<<16)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range q {
				s.err = send(s)
				s.end = time.Now()
			}
		}()
	}
	var shots []*shot
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		if stop(due) {
			break
		}
		s := &shot{due: due}
		if !prepare(i, s) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		s.lag = time.Since(due)
		shots = append(shots, s)
		q <- s
	}
	close(q)
	wg.Wait()
	return shots
}

// loadStats summarises one phase or ladder step.
type loadStats struct {
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	P50ms     float64 `json:"p50_ms"`
	P90ms     float64 `json:"p90_ms"`
	P99ms     float64 `json:"p99_ms"`
	LateShare float64 `json:"late_share"`
	MaxLagMs  float64 `json:"max_lag_ms"`
	// DrainMs is how long after the last due instant the last response
	// arrived: a backlog that grew during the phase shows here.
	DrainMs float64 `json:"drain_ms"`
	// GrowthMs is the median latency of the last quarter of requests (by
	// due instant) minus that of the first quarter.
	GrowthMs float64 `json:"growth_ms"`
	// Goodput is successful answers per second from the first due instant
	// to the last answer.
	Goodput float64 `json:"goodput_rps"`
}

// summarize computes latency percentiles from due instants. Failed
// requests count as missing every latency limit: they sort after every
// success.
func summarize(shots []*shot) loadStats {
	st := loadStats{Attempted: len(shots)}
	if len(shots) == 0 {
		return st
	}
	lat := make([]float64, len(shots))
	late := 0
	var lastDue, lastEnd time.Time
	for i, s := range shots {
		lat[i] = ms(s.latency())
		if s.err != nil {
			st.Failed++
			lat[i] = math.Inf(1)
		}
		if s.lag > lateAfter {
			late++
		}
		st.MaxLagMs = math.Max(st.MaxLagMs, ms(s.lag))
		if s.due.After(lastDue) {
			lastDue = s.due
		}
		if s.end.After(lastEnd) {
			lastEnd = s.end
		}
	}
	sort.Float64s(lat)
	st.P50ms = nearestRank(lat, 0.50)
	st.P90ms = nearestRank(lat, 0.90)
	st.P99ms = nearestRank(lat, 0.99)
	st.LateShare = float64(late) / float64(len(shots))
	st.DrainMs = ms(lastEnd.Sub(lastDue))
	if span := lastEnd.Sub(shots[0].due).Seconds(); span > 0 {
		st.Goodput = float64(st.Attempted-st.Failed) / span
	}
	if q := len(shots) / 4; q > 0 {
		st.GrowthMs = quarterMedian(shots[len(shots)-q:]) - quarterMedian(shots[:q])
	}
	return st
}

// quarterMedian is the median latency of shots, failures counting as
// infinitely late.
func quarterMedian(shots []*shot) float64 {
	lat := make([]float64, len(shots))
	for i, s := range shots {
		lat[i] = ms(s.latency())
		if s.err != nil {
			lat[i] = math.Inf(1)
		}
	}
	sort.Float64s(lat)
	return nearestRank(lat, 0.5)
}

// nearestRank is the q-quantile of sorted values by the nearest-rank rule.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// client talks to the server over loopback. Its transport holds at most
// conns connections, and every sender performs one request at a time, so
// the load generator never opens more than conns connections.
type client struct {
	hc      *http.Client
	base    string
	dataset string
}

func newClient(base, dataset string, conns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base, dataset: dataset}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) post(path string, body any, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, out)
}

// read sends one POST /v1/infer for the shot's pairs.
func (c *client) read(s *shot) error {
	req := struct {
		Dataset string     `json:"dataset"`
		Pairs   [][2]int64 `json:"pairs"`
	}{Dataset: c.dataset, Pairs: make([][2]int64, len(s.pairs))}
	for i, p := range s.pairs {
		req.Pairs[i] = [2]int64{int64(p.A), int64(p.B)}
	}
	var resp struct {
		Model     string `json:"model"`
		Decisions []bool `json:"decisions"`
		Degraded  bool   `json:"degraded"`
	}
	if err := c.post("/v1/infer", req, &resp); err != nil {
		return err
	}
	if resp.Degraded {
		return fmt.Errorf("degraded answer")
	}
	if len(resp.Decisions) != len(s.pairs) {
		return fmt.Errorf("%d decisions for %d pairs", len(resp.Decisions), len(s.pairs))
	}
	s.model, s.decisions = resp.Model, resp.Decisions
	return nil
}

// write sends one POST /v1/checkins holding the shot's records.
func (c *client) write(s *shot) error {
	req := struct {
		Records []ingest.Record `json:"records"`
	}{Records: s.recs}
	var resp struct {
		Accepted int `json:"accepted"`
	}
	if err := c.post("/v1/checkins", req, &resp); err != nil {
		return err
	}
	if resp.Accepted != len(s.recs) {
		return fmt.Errorf("accepted %d of %d records", resp.Accepted, len(s.recs))
	}
	return nil
}

// scrape is one parsed GET /metrics: series name (labels included) to
// value.
type scrape map[string]float64

func (c *client) scrape() (scrape, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	out := scrape{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// histDelta is the change of one histogram between two scrapes.
type histDelta struct {
	bounds []float64 // ascending upper bounds; the last is +Inf
	counts []float64 // per-bucket (not cumulative) observation counts
	count  float64
	sum    float64
}

func deltaHist(before, after scrape, name string) histDelta {
	prefix := name + `_bucket{le="`
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		raw := strings.TrimSuffix(strings.TrimPrefix(k, prefix), `"}`)
		le := math.Inf(1)
		if raw != "+Inf" {
			f, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				continue
			}
			le = f
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	h := histDelta{
		count: after[name+"_count"] - before[name+"_count"],
		sum:   after[name+"_sum"] - before[name+"_sum"],
	}
	prev := 0.0
	for _, b := range bs {
		h.bounds = append(h.bounds, b.le)
		h.counts = append(h.counts, b.cum-prev)
		prev = b.cum
	}
	return h
}

// quantile interpolates linearly within the containing bucket, as the
// server's own telemetry does.
func (h histDelta) quantile(q float64) float64 {
	if h.count <= 0 {
		return 0
	}
	rank := q * h.count
	cum, lower := 0.0, 0.0
	for i, le := range h.bounds {
		c := h.counts[i]
		if cum+c >= rank {
			if math.IsInf(le, 1) {
				return lower
			}
			if c == 0 {
				return le
			}
			return lower + (rank-cum)/c*(le-lower)
		}
		cum += c
		lower = le
	}
	return lower
}

func (h histDelta) mean() float64 {
	if h.count <= 0 {
		return 0
	}
	return h.sum / h.count
}
