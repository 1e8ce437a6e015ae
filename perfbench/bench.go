package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/friendseeker/friendseeker/internal/checkin"
	"github.com/friendseeker/friendseeker/internal/core"
	"github.com/friendseeker/friendseeker/internal/ingest"
	"github.com/friendseeker/friendseeker/internal/metrics"
	"github.com/friendseeker/friendseeker/internal/serve"
)

// workload is one traffic shape. Every workload runs the same phases so
// that each prints every end-to-end metric; they differ in how many
// pairs one read carries, which moves the serving cost between the
// per-request path (transport, JSON, the coalescer's flush wait) and the
// per-pair path (PairScorer.Decide).
type workload struct {
	name        string
	pairsPerReq int
	ladderStart float64 // first rate of the ladder, below the knee
}

var workloads = []workload{
	{name: "pairs4", pairsPerReq: 4, ladderStart: 400},
	{name: "pairs16", pairsPerReq: 16, ladderStart: 250},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	dsName = "bench"
	// readRPS is the rate of the fixed-rate read phases, well below the
	// knee of both workloads.
	readRPS = 100
	// setupRepeats is how many times a run builds its inputs; setup_s is
	// the median.
	setupRepeats = 25
	// inferRepeats is how many times a run times Infer; infer_s is the
	// median. The calls are spread over the run (after Train, after the
	// ladder, after the mixed phase), so that a slow spell of the shared
	// host that covers one of them does not move the figure.
	inferRepeats = 3
	// sloP99 is the read latency limit of the rate ladder.
	sloP99 = 100 * time.Millisecond
	// readWarmup is the untimed read traffic before the read phase.
	readWarmup = 500 * time.Millisecond
	// ladderStep is the length of one ladder rate step.
	ladderStep = time.Second
	// ladderRatio and ladderBisections shape the ladder: geometric steps
	// up to the first miss, then bisection (in log space) between the last
	// pass and the first miss, a resolution of ladderRatio^(1/4).
	ladderRatio      = 1.25
	ladderBisections = 2
	ladderMaxSteps   = 12
	// maxLateShare is the share of late dispatches above which a step
	// does not count: the generator, not the server, fell behind.
	maxLateShare = 0.05
	// writeMix and writeBatch shape the check-in stream after the mix the
	// repository documents for serving under ingest (loadgen -checkin-mix
	// 0.1): one POST /v1/checkins per ten scheduled reads. A batch holds
	// 12 records rather than loadgen's default 16 so that the tail (1,319
	// records) makes 110 writes and the write p90 has 11 samples beyond it.
	writeMix   = 0.1
	writeBatch = 12
	// driftThreshold is crossed once most of the tail has streamed in
	// (the full tail scores about 0.5).
	driftThreshold = 0.25
	// mixedMax bounds the mixed phase if the retrained model never shows.
	mixedMax = 100 * time.Second
	// mixedAfter is how long the mixed phase keeps reading after the
	// first answer from the retrained model.
	mixedAfter = 500 * time.Millisecond
)

// runner carries one run's state.
type runner struct {
	wl    workload
	seed  int64
	secs  time.Duration
	nproc int
	tr    *tracer
	in    *inputs

	e2e    map[string]float64
	layer  map[string]float64
	detail map[string]any
	fails  []string

	attempted, failed int

	attackDecisions []bool
	inferRep        *core.InferReport
	inferS          []float64

	refs map[string]map[checkin.Pair]bool // model id -> decision per pair
}

func (r *runner) check(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		r.fails = append(r.fails, msg)
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
}

func run(wl workload, seed int64, seconds int, trace bool) (*output, error) {
	r := &runner{
		wl: wl, seed: seed, secs: time.Duration(seconds) * time.Second,
		nproc: runtime.NumCPU(), tr: newTracer(trace),
		e2e: map[string]float64{}, layer: map[string]float64{}, detail: map[string]any{},
		refs: map[string]map[checkin.Pair]bool{},
	}
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(root, ".bench_build")
	work, err := os.MkdirTemp(filepath.Join(out, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	if err := r.setup(); err != nil {
		return nil, err
	}
	model, err := r.attack()
	if err != nil {
		return nil, err
	}
	if err := r.serveAll(model, filepath.Join(work, "ingest")); err != nil {
		return nil, err
	}
	r.e2e["infer_s"] = median(r.inferS)
	r.detail["infer_s"] = r.inferS
	r.check(len(r.inferS) == inferRepeats, "infer timed %d times, want %d", len(r.inferS), inferRepeats)
	r.e2e["peak_rss_mb"] = peakRSSMB()
	if trace {
		if err := r.probes(model); err != nil {
			return nil, err
		}
		r.detail["spans"] = r.tr.count()
	}

	st := currentStamp()
	if err := r.checkRepeat(filepath.Join(out, "results"), st); err != nil {
		return nil, err
	}
	if err := r.saveResult(filepath.Join(out, "results"), st, trace); err != nil {
		return nil, err
	}
	res := &output{
		Correct: len(r.fails) == 0, Attempted: r.attempted, Failed: r.failed,
	}
	if trace {
		res.Metrics = pick(perLayer, r.layer)
	} else {
		res.Metrics = pick(endToEnd, r.e2e)
	}
	return res, nil
}

// setup builds the run's inputs several times and reports the median. An
// untimed first build and a collection before each timed one keep the
// young process's heap growth out of the figure.
func (r *runner) setup() error {
	if _, err := makeInputs(); err != nil {
		return err
	}
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		start := time.Now()
		in, err := makeInputs()
		if err != nil {
			return err
		}
		times = append(times, time.Since(start).Seconds())
		r.in = in
	}
	r.e2e["setup_s"] = median(times)
	return nil
}

// attack trains on the base corpus and infers every user pair of it: the
// paper's pipeline (Definition 7), scored on the held-out labelled pairs.
func (r *runner) attack() (*core.FriendSeeker, error) {
	in := r.in
	model, err := core.New(in.cfg)
	if err != nil {
		return nil, err
	}
	_, trainDur, err := r.tr.timed("core.train", 0, func() error {
		return model.Train(in.base, in.split.TrainPairs, in.split.TrainLabels)
	})
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	trainS := trainDur.Seconds()
	id, err := modelID(model)
	if err != nil {
		return nil, err
	}
	r.detail["model_id"] = id
	decisions, rep, err := r.timeInfer(model)
	if err != nil {
		return nil, err
	}
	r.e2e["train_s"] = trainS

	evalPreds, err := in.split.EvalDecisionsFrom(in.universe, decisions)
	if err != nil {
		return nil, err
	}
	conf, err := metrics.Evaluate(evalPreds, in.split.EvalLabels)
	if err != nil {
		return nil, err
	}
	r.e2e["f1"] = conf.F1()
	r.attackDecisions = decisions
	r.detail["decisions_sha256"] = decisionHash(in.universe, decisions)
	r.detail["eval_pairs"] = len(in.split.EvalPairs)
	r.check(conf.F1() > 0, "attack F1 is 0")

	trep, err := model.LastTrainReport()
	if err != nil {
		return nil, err
	}
	r.layer["core.train_s"] = trainS
	r.layer["core.train_rounds"] = float64(trep.Phase2Iterations)
	r.layer["core.infer_rounds"] = float64(rep.Iterations)
	r.layer["core.phase1_edges"] = float64(rep.Phase1Graph.NumEdges())
	r.layer["core.final_edges"] = float64(rep.FinalGraph.NumEdges())
	r.inferRep = rep
	return model, nil
}

// timeInfer runs Infer over every pair of the base corpus once and
// records its time in r.inferS. After the first call it checks that the
// decisions repeat those of the first.
func (r *runner) timeInfer(model *core.FriendSeeker) ([]bool, *core.InferReport, error) {
	var (
		decisions []bool
		rep       *core.InferReport
	)
	quiesce()
	_, dur, err := r.tr.timed("core.infer", 0, func() error {
		var err error
		decisions, rep, err = model.Infer(r.in.base, r.in.universe)
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("infer: %w", err)
	}
	r.inferS = append(r.inferS, dur.Seconds())
	if r.attackDecisions != nil {
		r.check(slices.Equal(decisions, r.attackDecisions), "infer %d: decisions differ from the first", len(r.inferS))
	}
	return decisions, rep, nil
}

// decisionHash fingerprints a decision vector with its pair order.
func decisionHash(pairs []checkin.Pair, decisions []bool) string {
	h := sha256.New()
	for i, p := range pairs {
		b := byte('0')
		if decisions[i] {
			b = '1'
		}
		fmt.Fprintf(h, "%d,%d,%c\n", p.A, p.B, b)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// modelID is the serving identity of a model: the short hash of its
// artifact, as the server computes it for models loaded from disk.
func modelID(m *core.FriendSeeker) (string, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return "", err
	}
	return serve.Hash(buf.Bytes()), nil
}

// reference records direct-Infer decisions over universe for model id;
// served answers from that model must match them.
func (r *runner) reference(id string, m *core.FriendSeeker, ds *checkin.Dataset, universe []checkin.Pair) error {
	decisions, _, err := m.Infer(ds, universe)
	if err != nil {
		return fmt.Errorf("reference infer: %w", err)
	}
	ref := make(map[checkin.Pair]bool, len(universe))
	for i, p := range universe {
		ref[p] = decisions[i]
	}
	r.refs[id] = ref
	return nil
}

// verify checks every successful read against the reference decisions of
// the model named in its response. The server reads that name after the
// batch was scored, and the coalescer may split one request's pairs over
// two batches, so a request in flight while a swap lands can carry the
// new name over answers that are partly or wholly the previous model's.
// A read due before the swap returned (swapped) whose every answer matches
// either the named model or the previous one (prevID) is counted in
// serve.swap_mislabelled, not as a wrong answer.
func (r *runner) verify(phase string, shots []*shot, prevID string, swapped time.Time) {
	bad, mislabelled := 0, 0
	var where []string
	for _, s := range shots {
		if s.err != nil || s.decisions == nil {
			continue
		}
		ref, ok := r.refs[s.model]
		if !ok {
			r.check(false, "%s: answer from unknown model %q", phase, s.model)
			return
		}
		prev := r.refs[prevID]
		straddles := prevID != "" && !s.due.After(swapped)
		n, either := 0, 0
		for i, p := range s.pairs {
			if ref[p] != s.decisions[i] {
				n++
				if straddles && prev[p] == s.decisions[i] {
					either++
				}
			}
		}
		if n == 0 {
			continue
		}
		if n == either {
			mislabelled++
			continue
		}
		bad += n
		if len(where) < 10 {
			where = append(where, fmt.Sprintf("model %s due %s end %s: %d of %d pairs differ",
				s.model, s.due.Format(time.RFC3339Nano), s.end.Format(time.RFC3339Nano), n, len(s.pairs)))
		}
	}
	if bad > 0 {
		r.detail["mismatch_"+phase] = where
	}
	r.layer["serve.swap_mislabelled"] += float64(mislabelled)
	r.check(bad == 0, "%s: %d served decisions differ from direct Infer", phase, bad)
}

func (r *runner) count(shots []*shot) {
	for _, s := range shots {
		r.attempted++
		if s.err != nil {
			r.failed++
		}
	}
}

// serveAll runs the serving phases against one server: warm, fixed-rate
// reads, the rate ladder, then reads beside the streamed tail and a
// retrain. While the server is idle after the ladder and after the mixed
// phase it times Infer again.
func (r *runner) serveAll(model *core.FriendSeeker, ingestDir string) error {
	in := r.in
	mcfg := model.Config()
	id, err := modelID(model)
	if err != nil {
		return err
	}
	ref := make(map[checkin.Pair]bool, len(in.universe))
	for i, p := range in.universe {
		ref[p] = r.attackDecisions[i]
	}
	r.refs[id] = ref

	ing, err := ingest.Open(ingest.Options{Dir: ingestDir, Base: in.base, Sigma: mcfg.Sigma, Tau: mcfg.Tau})
	if err != nil {
		return fmt.Errorf("open ingest: %w", err)
	}
	defer ing.Close()
	srv, err := serve.New(serve.Config{Ingest: ing}, model, id, []serve.Dataset{{Name: dsName, Data: in.base}})
	if err != nil {
		return err
	}
	_, warmDur, err := r.tr.timed("serve.warm", 0, func() error { return srv.Warm(context.Background()) })
	if err != nil {
		return fmt.Errorf("warm: %w", err)
	}
	r.e2e["warm_s"] = warmDur.Seconds()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Every request has been answered by now; a shutdown error cannot
		// change the result.
		_ = hs.Shutdown(ctx)
		_ = srv.Shutdown(ctx)
		<-served
	}()
	c := newClient("http://"+ln.Addr().String(), dsName, r.nproc)
	defer c.close()

	if err := r.readPhase(c); err != nil {
		return err
	}
	r.ladder(c)
	if _, _, err := r.timeInfer(model); err != nil {
		return err
	}
	if err := r.mixedPhase(c, srv, ing, model); err != nil {
		return err
	}
	_, _, err = r.timeInfer(model)
	return err
}

// readPhase sends reads at the workload's fixed rate for --seconds,
// after readWarmup of the same traffic, which is checked but not
// timed.
func (r *runner) readPhase(c *client) error {
	draw := newPairDraw(r.in.universe, r.seed+101)
	prepare := func(i int, s *shot) bool { s.pairs = draw.next(r.wl.pairsPerReq); return true }
	start := time.Now().Add(20 * time.Millisecond)
	end := start.Add(readWarmup)
	warm := openLoop(start, readRPS, r.nproc,
		func(due time.Time) bool { return !due.Before(end) }, prepare, c.read)
	r.count(warm)
	r.verify("read warm-up", warm, "", time.Time{})

	quiesce()
	before, err := r.scrape(c)
	if err != nil {
		return err
	}
	start = time.Now().Add(20 * time.Millisecond)
	end = start.Add(r.secs)
	phase := r.tr.begin("phase.read", start)
	shots := openLoop(start, readRPS, r.nproc,
		func(due time.Time) bool { return !due.Before(end) }, prepare, r.sendRead(c, phase, 0))
	r.tr.finish(phase)
	after, err := r.scrape(c)
	if err != nil {
		return err
	}
	st := summarize(shots)
	r.count(shots)
	r.verify("read", shots, "", time.Time{})
	r.check(st.Failed == 0, "read: %d of %d requests failed", st.Failed, st.Attempted)
	r.detail["read"] = st
	r.e2e["read_p50_ms"] = st.P50ms
	r.layer["load.read.p90_ms"] = st.P90ms
	r.layer["load.read.p99_ms"] = st.P99ms
	r.layer["load.read.late_share"] = st.LateShare
	r.layer["load.read.max_lag_ms"] = st.MaxLagMs
	r.layer["serve.read_failed_share"] = float64(st.Failed) / float64(st.Attempted)
	if after != nil {
		req := deltaHist(before, after, "fs_serve_request_seconds")
		r.layer["serve.request_p50_ms"] = 1000 * req.quantile(0.5)
		r.layer["serve.request_p99_ms"] = 1000 * req.quantile(0.99)
		r.layer["serve.client_gap_ms"] = st.P50ms - 1000*req.quantile(0.5)
		r.layer["serve.coalesce_wait_ms"] = 1000 * deltaHist(before, after, "fs_serve_coalesce_wait_seconds").quantile(0.5)
		r.layer["serve.batch_pairs"] = deltaHist(before, after, "fs_serve_batch_pairs").mean()
	}
	return nil
}

// scrape reads /metrics in traced runs only.
func (r *runner) scrape(c *client) (scrape, error) {
	if r.tr == nil {
		return nil, nil
	}
	return c.scrape()
}

// sendRead returns a sender that records a span per request in traced
// runs. Request ids are unique within the run: base + schedule index.
func (r *runner) sendRead(c *client, parent, base int64) func(*shot) error {
	if r.tr == nil {
		return c.read
	}
	var seq atomic.Int64
	return func(s *shot) error {
		start := time.Now()
		err := c.read(s)
		r.tr.record("serve.read", parent, base+seq.Add(1), start, time.Now())
		return err
	}
}

// ladder raises the offered read rate geometrically until a step misses
// the limit, then bisects between the last pass and the first miss.
// knee_rps is the goodput measured at the highest passing rate. A step
// passes when p99 from the due instant is within sloP99, under 1% failed,
// the backlog did not grow (the median latency of the step's last quarter
// is within sloP99/10 of its first quarter's, and the last response came
// within sloP99 of the last due instant), and the generator kept up
// (under maxLateShare of requests dispatched late). A climbing step that
// misses is repeated once.
func (r *runner) ladder(c *client) {
	draw := newPairDraw(r.in.universe, r.seed+202)
	type step struct {
		RPS  float64   `json:"rps"`
		Pass bool      `json:"pass"`
		St   loadStats `json:"stats"`
	}
	var steps []step
	var lateMax, lagMax, best, knee float64
	try := func(rps float64) bool {
		quiesce()
		start := time.Now().Add(20 * time.Millisecond)
		end := start.Add(ladderStep)
		parent := r.tr.begin("phase.ladder."+strconv.FormatFloat(rps, 'f', 0, 64), start)
		shots := openLoop(start, rps, r.nproc,
			func(due time.Time) bool { return !due.Before(end) },
			func(i int, s *shot) bool { s.pairs = draw.next(r.wl.pairsPerReq); return true },
			r.sendRead(c, parent, int64(len(steps)+1)<<32))
		r.tr.finish(parent)
		st := summarize(shots)
		r.count(shots)
		r.verify("ladder", shots, "", time.Time{})
		pass := st.P99ms <= ms(sloP99) && float64(st.Failed) < 0.01*float64(st.Attempted) &&
			st.DrainMs <= ms(sloP99) && st.GrowthMs <= ms(sloP99)/10 && st.LateShare < maxLateShare
		steps = append(steps, step{RPS: rps, Pass: pass, St: st})
		lateMax = math.Max(lateMax, st.LateShare)
		lagMax = math.Max(lagMax, st.MaxLagMs)
		if pass && rps > best {
			best, knee = rps, st.Goodput
		}
		// Let a backlog left by a failing step clear before the next one.
		time.Sleep(100 * time.Millisecond)
		return pass
	}
	lo, hi := 0.0, 0.0
	rate := r.wl.ladderStart
	for i := 0; i < ladderMaxSteps; i++ {
		// A climbing step that misses runs once more and counts as a
		// miss only when the miss repeats, so a passing stall of a
		// shared host does not end the climb early and halve the knee.
		if !try(rate) && !try(rate) {
			hi = rate
			break
		}
		lo = rate
		rate *= ladderRatio
	}
	if lo == 0 {
		// The fixed-rate phase met the limit.
		lo, knee = readRPS, r.detail["read"].(loadStats).Goodput
	}
	if hi > 0 {
		for i := 0; i < ladderBisections; i++ {
			mid := math.Sqrt(lo * hi)
			if try(mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
	}
	r.e2e["knee_rps"] = knee
	r.detail["ladder"] = steps
	r.layer["load.ladder.late_share"] = lateMax
	r.layer["load.ladder.max_lag_ms"] = lagMax
}

// mixedPhase keeps reading at the fixed rate while the check-in tail
// streams in, writeBatch records per request at writeMix writes per read,
// then fires one retrain through the worker's RunOnce once the tail is
// in. The phase ends mixedAfter after the first answer from the retrained
// model.
func (r *runner) mixedPhase(c *client, srv *serve.Server, ing *ingest.Ingestor, model *core.FriendSeeker) error {
	in := r.in
	cfg := model.Config()
	oldID := srv.ModelID()
	var (
		publishes    atomic.Int32
		newID        atomic.Value // string
		newModel     *core.FriendSeeker
		newSnap      *checkin.Dataset
		seenAt       atomic.Int64 // unix ns of the first response from the new model
		retrainAt    time.Time
		trainStart   time.Time
		trainEnd     time.Time
		publishStart time.Time
		publishEnd   time.Time
		publishErr   error
		published    bool
		retrainErr   error
		retrainDone  = make(chan struct{})
	)
	rt, err := ingest.NewRetrainer(ing, ingest.RetrainConfig{
		Threshold: driftThreshold,
		Cooldown:  time.Hour,
		Train: func(ctx context.Context, snap *checkin.Dataset) (*core.FriendSeeker, error) {
			trainStart = time.Now()
			cand, err := core.New(cfg)
			if err == nil {
				err = cand.Train(snap, in.split.TrainPairs, in.split.TrainLabels)
			}
			trainEnd = time.Now()
			return cand, err
		},
		Publish: func(ctx context.Context, cand *core.FriendSeeker, id string, snap *checkin.Dataset) error {
			publishStart = time.Now()
			publishes.Add(1)
			newModel, newSnap = cand, snap
			newID.Store(id)
			publishErr = srv.SwapWithDataset(ctx, cand, id, dsName, snap, nil)
			publishEnd = time.Now()
			return publishErr
		},
	})
	if err != nil {
		return err
	}
	srv.SetRetrainer(rt)

	quiesce()
	before, err := r.scrape(c)
	if err != nil {
		return err
	}
	start := time.Now().Add(20 * time.Millisecond)
	phase := r.tr.begin("phase.mixed", start)
	writeRPS := writeMix * readRPS
	batches := (len(in.tail) + writeBatch - 1) / writeBatch

	// Writes: the tail in time order on one connection, so each user's
	// check-ins arrive in order.
	var writes []*shot
	writesDone := make(chan struct{})
	go func() {
		defer close(writesDone)
		var seq atomic.Int64
		writes = openLoop(start, writeRPS, 1,
			func(time.Time) bool { return false },
			func(i int, s *shot) bool {
				if i >= batches {
					return false
				}
				s.recs = in.tail[i*writeBatch : min((i+1)*writeBatch, len(in.tail))]
				return true
			},
			func(s *shot) error {
				t0 := time.Now()
				err := c.write(s)
				r.tr.record("ingest.write", phase, 1<<40+seq.Add(1), t0, time.Now())
				return err
			})
	}()

	// The retrain fires at a fixed offset: when the tail has been sent.
	go func() {
		defer close(retrainDone)
		<-writesDone
		if d := time.Until(start.Add(time.Duration(float64(batches) / writeRPS * float64(time.Second)))); d > 0 {
			time.Sleep(d)
		}
		r.detail["drift_at_retrain"] = ing.Drift()
		retrainAt = time.Now()
		published, retrainErr = rt.RunOnce(context.Background())
		end := time.Now()
		if r.tr != nil {
			id := r.tr.record("ingest.retrain", phase, 0, retrainAt, end)
			if !trainStart.IsZero() {
				r.tr.record("ingest.retrain.snapshot", id, 0, retrainAt, trainStart)
				r.tr.record("ingest.retrain.train", id, 0, trainStart, trainEnd)
			}
			if !publishEnd.IsZero() {
				r.tr.record("ingest.retrain.publish", id, 0, publishStart, publishEnd)
			}
		}
	}()

	readers := r.nproc - 1
	if readers < 1 {
		readers = 1
	}
	draw := newPairDraw(in.universe, r.seed+303)
	send := r.sendRead(c, phase, 2<<40)
	reads := openLoop(start, readRPS, readers,
		func(due time.Time) bool {
			if at := seenAt.Load(); at != 0 {
				return due.After(time.Unix(0, at).Add(mixedAfter))
			}
			return due.After(start.Add(mixedMax))
		},
		func(i int, s *shot) bool { s.pairs = draw.next(r.wl.pairsPerReq); return true },
		func(s *shot) error {
			err := send(s)
			if id, ok := newID.Load().(string); ok && err == nil && s.model == id {
				seenAt.CompareAndSwap(0, time.Now().UnixNano())
			}
			return err
		})
	<-writesDone
	<-retrainDone
	r.tr.finish(phase)
	after, err := r.scrape(c)
	if err != nil {
		return err
	}

	r.attempted++ // the retrain
	if retrainErr != nil || !published {
		r.failed++
	}
	r.check(retrainErr == nil, "retrain failed: %v", retrainErr)
	r.check(published && publishes.Load() == 1, "retrain published %d models (RunOnce published=%v)", publishes.Load(), published)
	r.check(seenAt.Load() != 0, "no answer carried the retrained model id")
	if newModel != nil && publishErr == nil {
		id := newID.Load().(string)
		if err := r.reference(id, newModel, newSnap, serve.AllUserPairs(newSnap)); err != nil {
			return err
		}
	}

	// Reads due before the retrain fired ran beside the writes; the rest
	// ran beside the retrain and the swap.
	var beside, during []*shot
	for _, s := range reads {
		if s.due.Before(retrainAt) {
			beside = append(beside, s)
		} else {
			during = append(during, s)
		}
	}
	rs, ds, ws := summarize(beside), summarize(during), summarize(writes)
	r.count(reads)
	r.count(writes)
	r.verify("mixed", reads, oldID, publishEnd)
	r.check(rs.Failed+ds.Failed == 0, "mixed: %d of %d reads failed", rs.Failed+ds.Failed, len(reads))
	r.check(ws.Failed == 0 && len(writes) == batches, "mixed: %d of %d writes failed (%d of %d sent)",
		ws.Failed, ws.Attempted, len(writes), batches)
	r.detail["mixed_reads"] = rs
	r.detail["retrain_reads"] = ds
	r.detail["mixed_writes"] = ws
	r.e2e["mixed_read_p50_ms"] = rs.P50ms
	r.layer["load.mixed.read_p90_ms"] = rs.P90ms
	r.layer["load.mixed.read_p99_ms"] = rs.P99ms
	r.layer["load.mixed.write_p50_ms"] = ws.P50ms
	r.layer["load.mixed.write_p90_ms"] = ws.P90ms
	r.layer["load.mixed.write_p99_ms"] = ws.P99ms
	r.layer["load.retrain.read_p50_ms"] = ds.P50ms
	r.layer["load.retrain.read_p99_ms"] = ds.P99ms
	if at := seenAt.Load(); at != 0 {
		r.e2e["retrain_s"] = time.Unix(0, at).Sub(retrainAt).Seconds()
	}
	if !trainStart.IsZero() {
		r.layer["ingest.retrain_snapshot_s"] = trainStart.Sub(retrainAt).Seconds()
		r.layer["ingest.retrain_train_s"] = trainEnd.Sub(trainStart).Seconds()
	}
	if !publishEnd.IsZero() {
		r.layer["ingest.retrain_publish_s"] = publishEnd.Sub(publishStart).Seconds()
	}
	r.layer["load.mixed.late_share"] = math.Max(math.Max(rs.LateShare, ds.LateShare), ws.LateShare)
	r.layer["load.mixed.max_lag_ms"] = math.Max(math.Max(rs.MaxLagMs, ds.MaxLagMs), ws.MaxLagMs)
	if after != nil {
		r.layer["ingest.write_server_ms"] = 1000 * deltaHist(before, after, "fs_serve_checkin_seconds").quantile(0.5)
		r.layer["serve.rejected_429"] = after["fs_serve_rejected_inflight_total"] + after["fs_serve_rejected_queue_total"]
	}
	return nil
}

// quiesce collects garbage so that every timed phase starts from the same
// heap state instead of wherever the previous phase left the GC cycle.
func quiesce() {
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
