package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// Scale fixes the size of the generated catalogue and model.
type Scale struct {
	Name                       string
	Users, Items, Clusters     int
	MinCU, MaxCU, MinCI, MaxCI int
	Within                     float64
	Noise                      int
	K                          int
	Lambda                     float64
	// TrainIter is the fixed iteration count of the input model's
	// training and RetrainIter that of the ingest-retrain cycle.
	TrainIter, RetrainIter int
	// NewItems is how many items past the catalogue the ingest events
	// name, so a retrain grows the catalogue.
	NewItems int
	// RecallUsers is the size of the fixed user sample recall@50 is
	// computed on.
	RecallUsers int

	// Open-loop arrival rates (requests per second): cold-recommend
	// reads, hot-cluster reads, ingest-retrain reads and writes.
	ColdRate, HotRate, IngestReadRate, IngestWriteRate float64
	// ZipfS is the exponent of the Zipf user distribution.
	ZipfS float64
	// HotActive is how many of the most active users the hot-cluster
	// batch frames draw from: few enough that the router cache holds
	// them all, so the closed loop measures the hit path.
	HotActive int
	// SetupReps is how many times a run sets the tier up; setup_s is
	// the median.
	SetupReps int
	// WarmCacheUsers is the trainer's post-rollout cache warm size.
	WarmCacheUsers int
	// CheckLists is how many served lists per model version the output
	// checks recompute.
	CheckLists int
	// ReplayUsers is how many of a run's users the per-layer replays
	// rank again in-process.
	ReplayUsers int
}

// fullScale is the benchmark proper: a 10⁵-item catalogue at K=32.
var fullScale = Scale{
	Name: "full", Users: 20000, Items: 100000, Clusters: 200,
	MinCU: 40, MaxCU: 200, MinCI: 40, MaxCI: 300, Within: 0.08, Noise: 120000,
	K: 32, Lambda: 1, TrainIter: 8, RetrainIter: 3, NewItems: 64, RecallUsers: 1000,
	ColdRate: 100, HotRate: 200, IngestReadRate: 300, IngestWriteRate: 20, ZipfS: 1.5, HotActive: 1024,
	SetupReps: 11, WarmCacheUsers: 256, CheckLists: 48, ReplayUsers: 200,
}

// smallScale keeps the same shape of inputs at a size the tests run in
// well under a second.
var smallScale = Scale{
	Name: "small", Users: 400, Items: 3000, Clusters: 24,
	MinCU: 10, MaxCU: 40, MinCI: 20, MaxCI: 80, Within: 0.15, Noise: 800,
	K: 8, Lambda: 2, TrainIter: 4, RetrainIter: 2, NewItems: 6, RecallUsers: 48,
	ColdRate: 1000, HotRate: 1000, IngestReadRate: 1600, IngestWriteRate: 50, ZipfS: 1.5, HotActive: 64,
	SetupReps: 2, WarmCacheUsers: 16, CheckLists: 16, ReplayUsers: 20,
}

// Input file names inside a generated input directory.
const (
	modelFile   = "model.bin"
	trainFile   = "train.mtx"
	heldoutFile = "heldout.mtx"
	tagsFile    = "tags.csv"
	metaFile    = "meta.json"
	doneFile    = "DONE"
)

// denyTag marks the items the filtered requests exclude by tag.
const denyTag = "discontinued"

// numTags is the number of ordinary item tags ("t00".."t15").
const numTags = 16

// meta records what generated an input directory.
type meta struct {
	Seed      uint64 `json:"seed"`
	Scale     string `json:"scale"`
	Users     int    `json:"users"`
	Items     int    `json:"items"`
	Train     int    `json:"train_positives"`
	Heldout   int    `json:"heldout_positives"`
	TrainIter int    `json:"train_iterations"`
}

// generate writes the seeded inputs of one benchmark run into dir: a
// planted co-cluster catalogue split into training and held-out
// positives, the item tag table, and a v2 model file with the float32
// scoring section trained on the training split. The same (seed, scale)
// always produces byte-identical files. A DONE marker is written last,
// so a directory without it is incomplete.
func generate(dir string, seed uint64, sc Scale) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r := rng.New(seed)
	p, err := dataset.GeneratePlanted(dataset.PlantedConfig{
		Name: "perfbench", Users: sc.Users, Items: sc.Items, Clusters: sc.Clusters,
		MinClusterUsers: sc.MinCU, MaxClusterUsers: sc.MaxCU,
		MinClusterItems: sc.MinCI, MaxClusterItems: sc.MaxCI,
		WithinProb: sc.Within, NoisePositives: sc.Noise, PopularitySkew: 1.0,
	}, r.Split())
	if err != nil {
		return err
	}
	train, heldout := splitHeldout(p.R, r.Split())
	if err := writeMatrix(filepath.Join(dir, trainFile), train); err != nil {
		return err
	}
	if err := writeMatrix(filepath.Join(dir, heldoutFile), heldout); err != nil {
		return err
	}
	if err := writeTags(filepath.Join(dir, tagsFile), sc.Items, r.Split()); err != nil {
		return err
	}
	res, err := core.Train(train, core.Config{
		K: sc.K, Lambda: sc.Lambda, MaxIter: sc.TrainIter, Tol: 1e-12,
		Seed: seed, Workers: runtime.NumCPU(),
	})
	if err != nil {
		return fmt.Errorf("training the input model: %w", err)
	}
	if err := res.Model.SaveModelFileOpts(filepath.Join(dir, modelFile), core.SaveOptions{Float32: true}); err != nil {
		return err
	}
	m := meta{Seed: seed, Scale: sc.Name, Users: sc.Users, Items: sc.Items,
		Train: train.NNZ(), Heldout: heldout.NNZ(), TrainIter: res.Iterations()}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, metaFile), append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, doneFile), nil, 0o644)
}

// splitHeldout moves about a fifth of every user's positives into a
// held-out matrix, keeping at least one training positive per user.
func splitHeldout(all *sparse.Matrix, r *rng.RNG) (train, heldout *sparse.Matrix) {
	tb := sparse.NewBuilder(all.Rows(), all.Cols())
	hb := sparse.NewBuilder(all.Rows(), all.Cols())
	for u := 0; u < all.Rows(); u++ {
		row := all.Row(u)
		held := 0
		for _, i := range row {
			if held < len(row)-1 && r.Bernoulli(0.2) {
				hb.Add(u, int(i))
				held++
				continue
			}
			tb.Add(u, int(i))
		}
	}
	return tb.Build(), hb.Build()
}

func writeMatrix(path string, m *sparse.Matrix) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := sparse.WriteMatrixMarket(w, m); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readMatrix(path string) (*sparse.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := sparse.ReadMatrixMarket(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// writeTags writes the item name/tag table: every item carries one or
// two of the numTags ordinary tags, and one in twenty is tagged
// denyTag.
func writeTags(path string, items int, r *rng.RNG) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i := 0; i < items; i++ {
		tags := []int{r.Intn(numTags)}
		if r.Bernoulli(0.5) {
			if t := r.Intn(numTags); t != tags[0] {
				tags = append(tags, t)
			}
		}
		sort.Ints(tags)
		fmt.Fprintf(w, "%d,item-%d", i, i)
		for _, t := range tags {
			fmt.Fprintf(w, ",t%02d", t)
		}
		if r.Bernoulli(0.05) {
			fmt.Fprintf(w, ",%s", denyTag)
		}
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
