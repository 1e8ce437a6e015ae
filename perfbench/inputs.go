package main

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/friendseeker/friendseeker/internal/checkin"
	"github.com/friendseeker/friendseeker/internal/core"
	"github.com/friendseeker/friendseeker/internal/graph"
	"github.com/friendseeker/friendseeker/internal/ingest"
	"github.com/friendseeker/friendseeker/internal/serve"
	"github.com/friendseeker/friendseeker/internal/synth"
)

// baseFrac is the time-order cut between the corpus the model trains on
// and the tail streamed into POST /v1/checkins (synthgen -split-frac 0.7).
const baseFrac = 0.7

// The world, the labelled-pair split and the model seed are those of
// BenchmarkEndToEndAttack, whatever the run's seed: across world seeds
// the tiny preset's size varies by about a fifth, and every attack timing
// with it, which would bury a real change under seed variance. The run's
// seed draws the traffic (which pairs each read asks for).
const (
	worldSeed = 1
	splitSeed = 2
	modelSeed = 3
)

// attackConfig is the BenchmarkEndToEndAttack configuration.
func attackConfig() core.Config {
	return core.Config{Sigma: 120, FeatureDim: 16, Epochs: 12, Seed: modelSeed}
}

// inputs is everything a run builds before any timed work.
type inputs struct {
	cfg      core.Config
	base     *checkin.Dataset // first 70% of check-ins by time
	split    *synth.PairSplit // 70/30 labelled-pair split over base users
	universe []checkin.Pair   // every user pair of base: the served universe
	tail     []ingest.Record  // last 30% of check-ins, in time order
}

// makeInputs generates the tiny preset world, cuts it 70/30 by time,
// splits the base corpus's labelled pairs 70/30 and enumerates the pair
// universe.
func makeInputs() (*inputs, error) {
	world, err := synth.Generate(synth.Tiny(worldSeed))
	if err != nil {
		return nil, fmt.Errorf("generate world: %w", err)
	}
	cs := world.Dataset.AllCheckIns()
	sort.SliceStable(cs, func(i, j int) bool {
		if !cs[i].Time.Equal(cs[j].Time) {
			return cs[i].Time.Before(cs[j].Time)
		}
		if cs[i].User != cs[j].User {
			return cs[i].User < cs[j].User
		}
		return cs[i].POI < cs[j].POI
	})
	cut := int(baseFrac * float64(len(cs)))
	for cut > 0 && cut < len(cs) && cs[cut].Time.Equal(cs[cut-1].Time) {
		cut++
	}
	if cut <= 0 || cut >= len(cs) {
		return nil, fmt.Errorf("time cut leaves an empty side (%d check-ins)", len(cs))
	}
	base, err := world.Dataset.WithCheckIns(cs[:cut])
	if err != nil {
		return nil, fmt.Errorf("base corpus: %w", err)
	}
	tail := make([]ingest.Record, 0, len(cs)-cut)
	for _, c := range cs[cut:] {
		poi, err := world.Dataset.POI(c.POI)
		if err != nil {
			return nil, err
		}
		tail = append(tail, ingest.Record{
			User: int64(c.User), POI: int64(c.POI),
			Lat: poi.Center.Lat, Lng: poi.Center.Lng, Time: c.Time,
		})
	}

	truth := graph.NewGraph()
	for _, u := range base.Users() {
		truth.AddNode(u)
	}
	for _, e := range world.Truth.Edges() {
		if truth.HasNode(e.A) && truth.HasNode(e.B) {
			if err := truth.AddEdge(e.A, e.B); err != nil {
				return nil, err
			}
		}
	}
	split, err := (&synth.View{Dataset: base, Truth: truth}).SplitPairs(0.7, 3, splitSeed)
	if err != nil {
		return nil, fmt.Errorf("split pairs: %w", err)
	}
	return &inputs{
		cfg:      attackConfig(),
		base:     base,
		split:    split,
		universe: serve.AllUserPairs(base),
		tail:     tail,
	}, nil
}

// pairDraw draws request pair lists uniformly (with replacement) from a
// universe, deterministically from its seed.
type pairDraw struct {
	r        *rand.Rand
	universe []checkin.Pair
}

func newPairDraw(universe []checkin.Pair, seed int64) *pairDraw {
	return &pairDraw{r: rand.New(rand.NewSource(seed)), universe: universe}
}

func (d *pairDraw) next(n int) []checkin.Pair {
	out := make([]checkin.Pair, n)
	for i := range out {
		out[i] = d.universe[d.r.Intn(len(d.universe))]
	}
	return out
}
