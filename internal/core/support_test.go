package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rank"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// The dense oracle of the sparse-support path. The rank engine takes
// ScoreSupport on every known-user miss, so these tests compare it
// against selection over the full ScoreUser vector — items and
// math.Float64bits of every score.

// sparseModel builds a non-negative model in which users and items belong
// to few co-clusters: each factor entry is nonzero with probability
// density. With ties, nonzero values come from {0.5, 1}, so many items
// score equally; a sixth of them are tiny enough to score exactly 0.
func sparseModel(r *rand.Rand, users, items, k int, density float64, ties bool) *Model {
	m := &Model{k: k, users: users, items: items,
		fu: make([]float64, users*k), fi: make([]float64, items*k)}
	fill := func(arr []float64) {
		for j := range arr {
			if r.Float64() >= density {
				continue
			}
			if r.IntN(6) == 0 {
				// So small that the item scores exactly 0 although it
				// is a candidate (1e-200 also rounds to a float32 zero).
				arr[j] = []float64{1e-200, 1e-30}[r.IntN(2)]
				continue
			}
			if ties {
				arr[j] = float64(1+r.IntN(2)) / 2
			} else {
				arr[j] = 2 * r.Float64()
			}
		}
	}
	fill(m.fu)
	fill(m.fi)
	return m
}

// denseOnly hides a scorer's ScoreSupport, so an engine over it ranks
// every request densely.
type denseOnly struct{ s rank.Scorer }

func (d denseOnly) ScoreUser(u int, dst []float64) { d.s.ScoreUser(u, dst) }
func (d denseOnly) NumItems() int                  { return d.s.NumItems() }

// rangeScorer is the shard view of a MappedModelRange.
type rangeScorer struct{ rr *MappedModelRange }

func (r rangeScorer) ScoreUser(u int, dst []float64) { r.rr.ScoreItems(u, dst) }
func (r rangeScorer) NumItems() int                  { return r.rr.Len() }
func (r rangeScorer) ScoreSupport(u int, cand []int32, scores []float64) ([]int32, []float64, bool) {
	return r.rr.ScoreSupport(u, cand, scores)
}

type factorVectors struct{ m *Model }

func (v factorVectors) ItemVector(i int) []float64 { return v.m.ItemFactor(i) }

// oracle is the dense reference ranking: Select over ScoreUser at the
// stages' over-fetch, then the stages.
func oracle(s rank.Scorer, u, m int, stages []rank.Stage, filters []rank.Filter) ([]int, []float64) {
	dense := make([]float64, s.NumItems())
	s.ScoreUser(u, dense)
	items := rank.Select(dense, rank.StagesOverFetch(m, stages), filters...)
	scores := make([]float64, len(items))
	for n, i := range items {
		scores[n] = dense[i]
	}
	return rank.MergeTopMStaged(m, stages, rank.Partial{Items: items, Scores: scores})
}

func sameList(t *testing.T, what string, items []int, scores []float64, wantItems []int, wantScores []float64) {
	t.Helper()
	if len(items) != len(wantItems) || len(scores) != len(items) || len(wantScores) != len(wantItems) {
		t.Fatalf("%s: %d items / %d scores, want %d items (%v vs %v)", what, len(items), len(scores), len(wantItems), items, wantItems)
	}
	for n := range items {
		if items[n] != wantItems[n] || math.Float64bits(scores[n]) != math.Float64bits(wantScores[n]) {
			t.Fatalf("%s: position %d = (%d, %x), want (%d, %x)\n got %v\nwant %v", what, n,
				items[n], math.Float64bits(scores[n]), wantItems[n], math.Float64bits(wantScores[n]), items, wantItems)
		}
	}
}

// supportFixture is one random model with the request ingredients the
// property test draws from.
type supportFixture struct {
	model *Model
	train *sparse.Matrix
	tags  *rank.TagTable
}

func newSupportFixture(t testing.TB, r *rand.Rand, users, items, k int, density float64, ties bool) *supportFixture {
	t.Helper()
	model := sparseModel(r, users, items, k, density, ties)
	b := sparse.NewBuilder(users, items)
	for n := 0; n < users*3; n++ {
		b.Add(r.IntN(users), r.IntN(items))
	}
	var tb strings.Builder
	for i := 0; i < items; i++ {
		fmt.Fprintf(&tb, "%d,item-%d", i, i)
		if i == 0 || r.IntN(4) == 0 {
			tb.WriteString(",discontinued")
		}
		if i == items-1 || r.IntN(5) == 0 {
			tb.WriteString(",promo")
		}
		tb.WriteByte('\n')
	}
	tags, err := rank.LoadTagTable(strings.NewReader(tb.String()), items)
	if err != nil {
		t.Fatal(err)
	}
	return &supportFixture{model: model, train: b.Build(), tags: tags}
}

// request draws one (m, stages, filters) combination for user u. m
// ranges over small lists, the user's positive-score count (+1) and the
// whole catalogue (and past it).
func (f *supportFixture) request(t testing.TB, r *rand.Rand, u int) (int, []rank.Stage, []rank.Filter) {
	t.Helper()
	n := f.model.NumItems()
	dense := make([]float64, n)
	f.model.ScoreUser(u, dense)
	positive := 0
	for _, s := range dense {
		if s > 0 {
			positive++
		}
	}
	m := []int{1, 3, 10, positive, positive + 1, n, n + 7}[r.IntN(7)]
	filters := []rank.Filter{rank.TrainRow(f.train, u)}
	if r.IntN(3) == 0 {
		ex := make([]int, r.IntN(8))
		for j := range ex {
			ex[j] = r.IntN(n)
		}
		filters = append(filters, rank.ExcludeItems(ex))
	}
	if r.IntN(3) == 0 {
		deny, err := f.tags.Deny("discontinued")
		if err != nil {
			t.Fatal(err)
		}
		filters = append(filters, deny)
	}
	var stages []rank.Stage
	switch r.IntN(4) {
	case 1:
		stages = append(stages, rank.ScoreFloor(0.3))
	case 2:
		boost, err := f.tags.Boost(0.2, 2, "promo")
		if err != nil {
			t.Fatal(err)
		}
		stages = append(stages, boost)
	case 3:
		div, err := rank.Diversify(0.6, 3, factorVectors{f.model})
		if err != nil {
			t.Fatal(err)
		}
		stages = append(stages, div)
	}
	return m, stages, filters
}

// TestScoreSupportMatchesDense is the property test: over random
// non-negative sparse models — heap, float64-only and float32 files,
// and float32 and float64 item-range shards merged through
// MergeTopMStaged — every engine ranking equals the dense oracle.
func TestScoreSupportMatchesDense(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 12))
	for trial := 0; trial < 12; trial++ {
		users, items, k := 30+r.IntN(20), 40+r.IntN(120), 1+r.IntN(10)
		density := []float64{0, 0.03, 0.1, 0.3}[trial%4]
		f := newSupportFixture(t, r, users, items, k, density, trial%3 == 0)
		dir := t.TempDir()
		p64 := writeV2File(t, dir, "f64.bin", f.model, false)
		p32 := writeV2File(t, dir, "f32.bin", f.model, true)
		mm64, err := OpenMappedModel(p64)
		if err != nil {
			t.Fatal(err)
		}
		mm32, err := OpenMappedModel(p32)
		if err != nil {
			t.Fatal(err)
		}
		scorers := []struct {
			name string
			s    Scorer
		}{{"heap", f.model}, {"mmap64", mm64}, {"mmap32", mm32}}
		cuts := []int{0, items / 3, items / 2, -1}
		shards := map[string][]*rank.Engine{}
		for _, p := range []string{p64, p32} {
			for c := 0; c+1 < len(cuts); c++ {
				rr, err := OpenMappedModelRange(p, cuts[c], cuts[c+1])
				if err != nil {
					t.Fatal(err)
				}
				shards[p] = append(shards[p], rank.NewEngine(rangeScorer{rr}, rank.Config{CacheSize: -1}))
			}
		}
		for _, sc := range scorers {
			stats := &rank.Stats{}
			eng := rank.NewEngine(sc.s, rank.Config{CacheSize: 64, Stats: stats})
			for q := 0; q < 60; q++ {
				u := r.IntN(users)
				m, stages, filters := f.request(t, r, u)
				what := fmt.Sprintf("trial %d %s u=%d m=%d stages=%d filters=%d", trial, sc.name, u, m, len(stages), len(filters))
				wantItems, wantScores := oracle(sc.s, u, m, stages, filters)
				items, scores, _ := eng.TopMStaged(u, m, stages, filters...)
				sameList(t, what, items, scores, wantItems, wantScores)
			}
			if stats.SupportRanked() == 0 || stats.SupportRanked() > stats.Ranked() {
				t.Fatalf("trial %d %s: %d support rankings of %d", trial, sc.name, stats.SupportRanked(), stats.Ranked())
			}
		}
		for _, p := range []string{p64, p32} {
			ref := mm32
			if p == p64 {
				ref = mm64
			}
			for q := 0; q < 30; q++ {
				u := r.IntN(users)
				m, stages, filters := f.request(t, r, u)
				parts := make([]rank.Partial, len(shards[p]))
				for c, eng := range shards[p] {
					lo, hi := cuts[c], cuts[c+1]
					if hi == -1 {
						hi = items
					}
					local := make([]rank.Filter, len(filters))
					for j, fl := range filters {
						local[j] = rank.OffsetRange(fl, lo, hi)
					}
					got, scores, _ := eng.TopM(u, rank.StagesOverFetch(m, stages), local...)
					global := make([]int, len(got))
					for j, i := range got {
						global[j] = i + lo
					}
					parts[c] = rank.Partial{Items: global, Scores: scores}
				}
				items, scores := rank.MergeTopMStaged(m, stages, parts...)
				wantItems, wantScores := oracle(ref, u, m, stages, filters)
				sameList(t, fmt.Sprintf("trial %d shards %s u=%d m=%d", trial, p, u, m), items, scores, wantItems, wantScores)
			}
		}
	}
}

// TestScoreSupportBatch runs TopMBatch with several workers over the
// float32 file: each user's columns must equal the dense oracle.
func TestScoreSupportBatch(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	f := newSupportFixture(t, r, 60, 200, 8, 0.1, false)
	mm, err := OpenMappedModel(writeV2File(t, t.TempDir(), "f32.bin", f.model, true))
	if err != nil {
		t.Fatal(err)
	}
	eng := rank.NewEngine(mm, rank.Config{CacheSize: 16})
	users := make([]int, 40)
	reqs := make([][]rank.Filter, len(users))
	for n := range users {
		users[n] = r.IntN(60)
		_, _, reqs[n] = f.request(t, r, users[n])
	}
	div, err := rank.Diversify(0.6, 3, factorVectors{f.model})
	if err != nil {
		t.Fatal(err)
	}
	for _, stages := range [][]rank.Stage{nil, {rank.ScoreFloor(0.2), div}} {
		var cols rank.BatchCols
		eng.TopMBatch(users, 12, 4, stages, func(i int) ([]rank.Filter, bool) { return reqs[i], true }, &cols)
		off := 0
		for n, u := range users {
			c := int(cols.Counts[n])
			items := make([]int, c)
			for j := range items {
				items[j] = int(cols.Items[off+j])
			}
			wantItems, wantScores := oracle(mm, u, 12, stages, reqs[n])
			sameList(t, fmt.Sprintf("batch user %d (#%d)", u, n), items, cols.Scores[off:off+c], wantItems, wantScores)
			off += c
		}
	}
	if eng.Stats().SupportRanked() == 0 {
		t.Fatal("batch never took the support path")
	}
}

// TestScoreSupportEdges pins the corner cases: an all-zero user and an
// all-zero catalogue (every list is the zero-score fill), and the inputs
// that must send the engine down the dense path — a biased model, a
// negative item value, NaN in a user's row, and a user whose postings
// cover the catalogue.
func TestScoreSupportEdges(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 9))
	check := func(name string, model Scorer, u int, wantSupport bool) {
		t.Helper()
		stats := &rank.Stats{}
		eng := rank.NewEngine(model, rank.Config{CacheSize: -1, Stats: stats})
		for _, m := range []int{1, 5, model.NumItems(), model.NumItems() + 2} {
			items, scores, _ := eng.TopM(u, m)
			wantItems, wantScores := oracle(denseOnly{model}, u, m, nil, nil)
			sameList(t, fmt.Sprintf("%s m=%d", name, m), items, scores, wantItems, wantScores)
		}
		if got := stats.SupportRanked() > 0; got != wantSupport {
			t.Fatalf("%s: support path taken=%v, want %v", name, got, wantSupport)
		}
	}

	base := sparseModel(r, 10, 50, 6, 0.1, false)
	clear(base.fu[0:base.k])
	check("all-zero user", base, 0, true)

	empty := sparseModel(r, 4, 30, 5, 0, false)
	check("all-zero catalogue", empty, 2, true)
	dir := t.TempDir()
	mm, err := OpenMappedModel(writeV2File(t, dir, "empty.bin", empty, true))
	if err != nil {
		t.Fatal(err)
	}
	check("all-zero catalogue, float32", mm, 1, true)

	biased := sparseModel(r, 10, 50, 6, 0.1, false)
	biased.bu, biased.bi = make([]float64, 10), make([]float64, 50)
	for i := range biased.bi {
		biased.bi[i] = r.Float64() / 4
	}
	check("biased", biased, 3, false)
	mm, err = OpenMappedModel(writeV2File(t, dir, "biased.bin", biased, true))
	if err != nil {
		t.Fatal(err)
	}
	check("biased, float32", mm, 3, false)

	negative := sparseModel(r, 10, 50, 6, 0.1, false)
	negative.fi[7] = -0.5
	check("negative item value", negative, 1, false)

	nan := sparseModel(r, 10, 50, 6, 0.1, false)
	nan.fu[2*nan.k+1] = math.NaN()
	check("NaN in the user row", nan, 2, false)
	check("finite row of the same model", nan, 3, true)

	full := sparseModel(r, 3, 40, 4, 1, false)
	check("postings cover the catalogue", full, 0, false)
}

// FuzzScoreSupport compares the support and dense paths over fuzzed
// model shapes, sparsity and list lengths, through the heap model and a
// float32 file.
func FuzzScoreSupport(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(40), uint8(4), uint8(20), uint8(5), true)
	f.Add(uint64(2), uint8(1), uint8(1), uint8(1), uint8(255), uint8(0), false)
	f.Add(uint64(3), uint8(9), uint8(90), uint8(16), uint8(3), uint8(90), true)
	f.Fuzz(func(t *testing.T, seed uint64, users, items, k, density, m uint8, ties bool) {
		nu, ni, nk := 1+int(users)%16, 1+int(items), 1+int(k)%24
		r := rand.New(rand.NewPCG(seed, 1))
		fx := newSupportFixture(t, r, nu, ni, nk, float64(density)/255, ties)
		mm, err := OpenMappedModel(writeV2File(t, t.TempDir(), "f32.bin", fx.model, true))
		if err != nil {
			t.Fatal(err)
		}
		deny, err := fx.tags.Deny("discontinued")
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []Scorer{fx.model, mm} {
			eng := rank.NewEngine(s, rank.Config{CacheSize: -1})
			for u := 0; u < nu; u++ {
				filters := []rank.Filter{rank.TrainRow(fx.train, u)}
				if u%2 == 1 {
					filters = append(filters, deny)
				}
				items, scores, _ := eng.TopM(u, int(m), filters...)
				wantItems, wantScores := oracle(s, u, int(m), nil, filters)
				sameList(t, fmt.Sprintf("%T u=%d", s, u), items, scores, wantItems, wantScores)
			}
		}
	})
}

// BenchmarkRankSupport compares a dense and a sparse-support cache miss
// — score, training-row filter, top-50 — through the rank engine over a
// float32 file. The model is trained on a planted catalogue whose item
// factors have not collapsed: about a fifth of the items are nonzero and
// a user's candidates are about a quarter of the catalogue, so the
// support path has real work to do.
func BenchmarkRankSupport(b *testing.B) {
	p, err := dataset.GeneratePlanted(dataset.PlantedConfig{
		Name: "support-bench", Users: 2000, Items: 8000, Clusters: 60,
		MinClusterUsers: 30, MaxClusterUsers: 80, MinClusterItems: 100, MaxClusterItems: 200,
		WithinProb: 0.2, NoisePositives: 10000, PopularitySkew: 1,
	}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	res, err := Train(p.R, Config{K: 32, Lambda: 1, MaxIter: 4, Tol: 1e-12, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	mm, err := OpenMappedModel(writeV2File(b, b.TempDir(), "model.bin", res.Model, true))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		s    rank.Scorer
	}{{"dense", denseOnly{mm}}, {"support", mm}} {
		b.Run(c.name, func(b *testing.B) {
			stats := &rank.Stats{}
			eng := rank.NewEngine(c.s, rank.Config{CacheSize: -1, Stats: stats})
			mm.IndexSupport()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := (i * 7919) % p.R.Rows()
				if items, _, _ := eng.TopM(u, 50, rank.TrainRow(p.R, u)); len(items) != 50 {
					b.Fatalf("user %d: %d items", u, len(items))
				}
			}
			if n := stats.SupportRanked(); n > 0 {
				b.ReportMetric(float64(stats.SupportCandidates())/float64(n), "cand/op")
			}
		})
	}
}
