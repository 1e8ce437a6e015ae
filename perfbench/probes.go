package main

import (
	"fmt"
	"math"
	"time"

	"github.com/friendseeker/friendseeker/internal/checkin"
	"github.com/friendseeker/friendseeker/internal/core"
	"github.com/friendseeker/friendseeker/internal/graph"
	"github.com/friendseeker/friendseeker/internal/joc"
	"github.com/friendseeker/friendseeker/internal/knn"
	"github.com/friendseeker/friendseeker/internal/nn"
	"github.com/friendseeker/friendseeker/internal/svm"
	"github.com/friendseeker/friendseeker/internal/tensor"
)

// probes times the public functions of joc, nn, knn, svm and graph on the
// run's own inputs with the run's Config, repeating the work Train and
// Infer do inside core. They run after the serving phases so they cannot
// disturb an end-to-end number. The svm probe fits and scores the pairs'
// presence features (the autoencoder bottleneck, width d); core's phase-2
// SVM sees wider composite features, which core does not export.
func (r *runner) probes(model *core.FriendSeeker) error {
	in := r.in
	cfg := model.Config()
	parent := r.tr.begin("probes", time.Now())
	defer r.tr.finish(parent)
	var sum time.Duration // Train-stage probe time, for core.probe_coverage

	var div *joc.Division
	_, dt, err := r.tr.timed("joc.NewDivision", parent, func() error {
		var err error
		div, err = joc.NewDivision(in.base, cfg.Sigma, cfg.Tau)
		return err
	})
	if err != nil {
		return fmt.Errorf("probe division: %w", err)
	}
	r.layer["joc.division_s"] = dt.Seconds()
	sum += dt

	// Candidates: unlabelled pairs sharing a spatial grid, the pairs Train
	// scores with phase 1 beside the labelled sample.
	view, err := joc.NewDatasetView(div, in.base)
	if err != nil {
		return err
	}
	cells := view.UserSpatialCells()
	labelled := make(map[checkin.Pair]bool, len(in.split.TrainPairs))
	for _, p := range in.split.TrainPairs {
		labelled[p] = true
	}
	var cands []checkin.Pair
	for _, p := range in.universe {
		if !labelled[p] && shareCell(cells[p.A], cells[p.B]) {
			cands = append(cands, p)
		}
	}
	r.layer["joc.candidate_pairs"] = float64(len(cands))

	trainX := tensor.New(len(in.split.TrainPairs), div.InputDim())
	candX := tensor.New(len(cands), div.InputDim())
	_, dt, err = r.tr.timed("joc.BuildFlattened", parent, func() error {
		for i, p := range in.split.TrainPairs {
			v, err := div.BuildFlattened(in.base, p.A, p.B)
			if err != nil {
				return err
			}
			copy(trainX.Row(i), v)
		}
		for i, p := range cands {
			v, err := div.BuildFlattened(in.base, p.A, p.B)
			if err != nil {
				return err
			}
			copy(candX.Row(i), v)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("probe joc: %w", err)
	}
	r.layer["joc.build_us"] = perItemUS(dt, trainX.Rows+candX.Rows)
	sum += dt
	standardize(trainX, candX)

	y01 := make([]float64, len(in.split.TrainLabels))
	yInt := make([]int, len(in.split.TrainLabels))
	for i, l := range in.split.TrainLabels {
		if l {
			y01[i], yInt[i] = 1, 1
		}
	}
	d := cfg.FeatureDim
	if d > div.InputDim() {
		d = div.InputDim()
	}
	ae, err := nn.NewSupervisedAutoencoder(nn.AutoencoderConfig{
		InputDim: div.InputDim(), BottleneckDim: d, HeadHidden: cfg.HeadHidden,
		Alpha: cfg.Alpha, UseAdam: cfg.UseAdam, LearningRate: cfg.LearningRate,
		Epochs: cfg.Epochs, BatchSize: cfg.BatchSize, Seed: cfg.Seed,
	})
	if err != nil {
		return err
	}
	_, dt, err = r.tr.timed("nn.Fit", parent, func() error { _, err := ae.Fit(trainX, y01); return err })
	if err != nil {
		return fmt.Errorf("probe nn fit: %w", err)
	}
	r.layer["nn.fit_s"] = dt.Seconds()
	sum += dt
	var trainH, candH *tensor.Matrix
	_, dt, err = r.tr.timed("nn.Encode", parent, func() error {
		var err error
		if trainH, err = ae.Encode(trainX); err != nil {
			return err
		}
		candH, err = ae.Encode(candX)
		return err
	})
	if err != nil {
		return fmt.Errorf("probe nn encode: %w", err)
	}
	r.layer["nn.encode_us"] = perItemUS(dt, trainX.Rows+candX.Rows)
	sum += dt
	trainE, candE := rows(trainH), rows(candH)

	k := cfg.KNNNeighbors
	if k > len(trainE) {
		k = len(trainE)
	}
	opts := []knn.Option{knn.WithDistanceWeighting()}
	if cfg.KNNCosine {
		opts = append(opts, knn.WithCosineDistance())
	}
	c1, err := knn.New(k, opts...)
	if err != nil {
		return err
	}
	if err := c1.Fit(trainE, yInt); err != nil {
		return err
	}
	_, dt, err = r.tr.timed("knn.PredictProbaBatch", parent, func() error {
		_, err := c1.PredictProbaBatch(candE)
		return err
	})
	if err != nil {
		return fmt.Errorf("probe knn: %w", err)
	}
	r.layer["knn.predict_us"] = perItemUS(dt, len(candE))
	sum += dt
	_, dt, err = r.tr.timed("knn.PredictProbaLOO", parent, func() error {
		for i := range trainE {
			if _, err := c1.PredictProbaLOO(i); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("probe knn loo: %w", err)
	}
	r.layer["knn.loo_us"] = perItemUS(dt, len(trainE))
	sum += dt

	n := len(trainE)
	if n > cfg.MaxSVMTrain {
		n = cfg.MaxSVMTrain
	}
	gamma := cfg.SVMGamma
	if gamma == 0 {
		gamma = 1 / float64(d)
	}
	m := svm.New(svm.Config{Kernel: svm.RBF{Gamma: gamma}, C: cfg.SVMC, Seed: cfg.Seed})
	_, dt, err = r.tr.timed("svm.Fit", parent, func() error { return m.Fit(trainE[:n], yInt[:n]) })
	if err != nil {
		return fmt.Errorf("probe svm fit: %w", err)
	}
	r.layer["svm.fit_s"] = dt.Seconds()
	r.layer["svm.probe_n"] = float64(n)
	r.layer["svm.probe_width"] = float64(d)
	// Train fits C' once per refinement round.
	sum += dt * time.Duration(r.layer["core.train_rounds"])
	_, dt, err = r.tr.timed("svm.PredictProbaBatch", parent, func() error {
		_, err := m.PredictProbaBatch(candE)
		return err
	})
	if err != nil {
		return fmt.Errorf("probe svm predict: %w", err)
	}
	r.layer["svm.predict_us"] = perItemUS(dt, len(candE))

	r.layer["core.probe_sum_s"] = sum.Seconds()
	r.layer["core.probe_coverage"] = sum.Seconds() / r.layer["core.train_s"]
	return r.graphProbes(cfg, parent)
}

// graphProbes times BFSDistances from every user, and Khopper.Subgraph
// for every universe pair within K hops, on the phase-1 and final graphs
// of the attack's inference.
func (r *runner) graphProbes(cfg core.Config, parent int64) error {
	var bfs, sub time.Duration
	sources, pairs, paths := 0, 0, 0
	for _, g := range []*graph.Graph{r.inferRep.Phase1Graph, r.inferRep.FinalGraph} {
		reach := make(map[checkin.UserID]map[checkin.UserID]int)
		_, dt, _ := r.tr.timed("graph.BFSDistances", parent, func() error {
			for _, u := range g.Nodes() {
				reach[u] = g.BFSDistances(u, cfg.K)
			}
			return nil
		})
		bfs += dt
		sources += g.NumNodes()
		var within []checkin.Pair
		for _, p := range r.in.universe {
			if _, ok := reach[p.A][p.B]; ok {
				within = append(within, p)
			}
		}
		kh := graph.NewKhopper(g)
		_, dt, err := r.tr.timed("graph.Subgraph", parent, func() error {
			for _, p := range within {
				s, err := kh.Subgraph(p.A, p.B, cfg.K, graph.WithMaxPathsPerLength(cfg.MaxPathsPerLength))
				if err != nil {
					return err
				}
				paths += s.TotalPaths()
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("probe subgraph: %w", err)
		}
		sub += dt
		pairs += len(within)
	}
	r.layer["graph.bfs_us"] = perItemUS(bfs, sources)
	r.layer["graph.subgraph_us"] = perItemUS(sub, pairs)
	if pairs > 0 {
		r.layer["graph.paths_per_pair"] = float64(paths) / float64(pairs)
	}
	return nil
}

func shareCell(a, b map[int]struct{}) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for c := range a {
		if _, ok := b[c]; ok {
			return true
		}
	}
	return false
}

func perItemUS(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(time.Microsecond) / float64(n)
}

func rows(m *tensor.Matrix) [][]float64 {
	out := make([][]float64, m.Rows)
	for i := range out {
		out[i] = append([]float64(nil), m.Row(i)...)
	}
	return out
}

// standardize z-scores every column of both matrices by the first one's
// column statistics, as core does before the autoencoder.
func standardize(fit, other *tensor.Matrix) {
	for j := 0; j < fit.Cols; j++ {
		mean, sq := 0.0, 0.0
		for i := 0; i < fit.Rows; i++ {
			mean += fit.Row(i)[j]
		}
		mean /= float64(fit.Rows)
		for i := 0; i < fit.Rows; i++ {
			d := fit.Row(i)[j] - mean
			sq += d * d
		}
		std := math.Sqrt(sq / float64(fit.Rows))
		if std == 0 {
			std = 1
		}
		for _, m := range []*tensor.Matrix{fit, other} {
			for i := 0; i < m.Rows; i++ {
				m.Row(i)[j] = (m.Row(i)[j] - mean) / std
			}
		}
	}
}
