// Package classify identifies the cuisine of an ingredient list — the
// operational form of the paper's 'culinary fingerprints' (§I, [8]): if
// cuisines really have non-random signature ingredient combinations, a
// classifier trained on ingredient bags should recover the region of a
// held-out recipe far above chance. The package provides a multinomial
// naive Bayes classifier, deterministic train/test splitting,
// evaluation (accuracy, confusion, per-region precision/recall/F1) and
// distinctive-ingredient fingerprint extraction.
package classify

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
	"culinary/internal/rng"
)

// Training errors.
var (
	// ErrNoData marks training sets with no usable recipes.
	ErrNoData = errors.New("classify: no training data")
	// ErrUntrained is returned by Predict before Train.
	ErrUntrained = errors.New("classify: classifier is not trained")
)

// Classifier is a multinomial naive Bayes cuisine model over ingredient
// occurrences. It keeps integer counts, not log-probabilities: every
// score is computed at Predict from the counts, so a classifier filled
// from the store's live counters (TrainLive) needs no table built.
// Immutable after training; safe for concurrent Predict.
type Classifier struct {
	// Alpha is the Laplace smoothing pseudo-count (default 1).
	Alpha float64

	classes []class
	total   int // training recipes over every class
	nItems  int
}

// class is one region's training counts.
type class struct {
	region recipedb.Region
	docs   int     // training recipes
	size   int     // Σ recipe size: the sum of uses
	uses   []int32 // occurrences of each catalog ingredient, by ID
}

// New returns an untrained classifier with default smoothing.
func New() *Classifier { return &Classifier{Alpha: 1} }

// Train fits the model on the given recipe IDs of the store. Every
// region present in the training set becomes a class; at least two
// classes are required (a one-region corpus has nothing to
// discriminate). Training reads the corpus under one read epoch.
func (c *Classifier) Train(store *recipedb.Store, recipeIDs []int) error {
	var err error
	store.Read(func(v *recipedb.View) { err = c.TrainView(v, recipeIDs) })
	return err
}

// TrainView is Train against an already-held corpus view: it counts
// the given recipes one by one.
func (c *Classifier) TrainView(v *recipedb.View, recipeIDs []int) error {
	nItems := v.Catalog().Len()
	byRegion := make(map[recipedb.Region]*class)
	for _, rid := range recipeIDs {
		rec := v.Recipe(rid)
		cl := byRegion[rec.Region]
		if cl == nil {
			cl = &class{region: rec.Region, uses: make([]int32, nItems)}
			byRegion[rec.Region] = cl
		}
		for _, id := range rec.Ingredients {
			cl.uses[id]++
		}
		cl.docs++
		cl.size += len(rec.Ingredients)
	}
	classes := make([]class, 0, len(byRegion))
	for _, cl := range byRegion {
		classes = append(classes, *cl)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i].region < classes[j].region })
	return c.fit(classes, len(recipeIDs), nItems)
}

// TrainLive fits the model to every live recipe of v from the store's
// per-region counters, visiting no recipe: the same classes and counts
// as TrainView(v, v.RegionRecipes(recipedb.World)), so every score
// keeps its bits. The classifier borrows the store's rows and is valid
// only inside the enclosing Read.
func (c *Classifier) TrainLive(v *recipedb.View) error {
	regions := v.Regions()
	classes := make([]class, len(regions))
	for i, r := range regions {
		size, uses := v.RegionUses(r)
		classes[i] = class{region: r, docs: v.RegionLen(r), size: size, uses: uses}
	}
	return c.fit(classes, v.Len(), v.Catalog().Len())
}

// fit installs the classes, sorted by region, of a training set of
// total recipes.
func (c *Classifier) fit(classes []class, total, nItems int) error {
	if c.Alpha <= 0 {
		return fmt.Errorf("classify: Alpha %g must be positive", c.Alpha)
	}
	if total == 0 {
		return ErrNoData
	}
	if len(classes) < 2 {
		return fmt.Errorf("%w: need >= 2 regions to discriminate, have %d", ErrNoData, len(classes))
	}
	c.classes, c.total, c.nItems = classes, total, nItems
	return nil
}

// Prediction is one region with its log-posterior (up to the shared
// evidence constant) and normalized probability.
type Prediction struct {
	Region recipedb.Region
	// LogPosterior is log P(region) + Σ log P(ingredient | region).
	LogPosterior float64
	// Probability is the softmax-normalized posterior across classes.
	Probability float64
}

// Predict scores an ingredient list against every class and returns
// predictions sorted by decreasing posterior. A class scores log P(region)
// = log(docs/total) plus, per ingredient, log P(ingredient | region) =
// log((uses+α) / (size + α·catalog)).
func (c *Classifier) Predict(ids []flavor.ID) ([]Prediction, error) {
	if c.classes == nil {
		return nil, ErrUntrained
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("%w: empty ingredient list", ErrNoData)
	}
	for _, id := range ids {
		if int(id) < 0 || int(id) >= c.nItems {
			return nil, fmt.Errorf("classify: ingredient ID %d outside catalog", id)
		}
	}
	preds := make([]Prediction, len(c.classes))
	for ri, cl := range c.classes {
		lp := math.Log(float64(cl.docs) / float64(c.total))
		denom := float64(cl.size) + c.Alpha*float64(c.nItems)
		for _, id := range ids {
			lp += math.Log((float64(cl.uses[id]) + c.Alpha) / denom)
		}
		preds[ri] = Prediction{Region: cl.region, LogPosterior: lp}
	}
	// Softmax with max-shift for numerical stability.
	maxLP := math.Inf(-1)
	for _, p := range preds {
		if p.LogPosterior > maxLP {
			maxLP = p.LogPosterior
		}
	}
	var z float64
	for i := range preds {
		preds[i].Probability = math.Exp(preds[i].LogPosterior - maxLP)
		z += preds[i].Probability
	}
	for i := range preds {
		preds[i].Probability /= z
	}
	sort.Slice(preds, func(i, j int) bool {
		if preds[i].LogPosterior != preds[j].LogPosterior {
			return preds[i].LogPosterior > preds[j].LogPosterior
		}
		return preds[i].Region < preds[j].Region
	})
	return preds, nil
}

// PredictRegion returns only the argmax region.
func (c *Classifier) PredictRegion(ids []flavor.ID) (recipedb.Region, error) {
	preds, err := c.Predict(ids)
	if err != nil {
		return 0, err
	}
	return preds[0].Region, nil
}

// Split partitions the store's major-region recipes into train and test
// ID sets with the given held-out fraction, deterministically per seed.
// The split is stratified per region so small regions keep test
// representation.
func Split(store *recipedb.Store, testFraction float64, seed uint64) (train, test []int, err error) {
	if testFraction <= 0 || testFraction >= 1 {
		return nil, nil, fmt.Errorf("classify: test fraction %g outside (0,1)", testFraction)
	}
	src := rng.New(seed)
	for _, region := range recipedb.MajorRegions() {
		ids := store.RegionRecipes(region)
		if len(ids) == 0 {
			continue
		}
		src.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		cut := int(float64(len(ids)) * testFraction)
		if cut == 0 && len(ids) > 1 {
			cut = 1
		}
		test = append(test, ids[:cut]...)
		train = append(train, ids[cut:]...)
	}
	if len(train) == 0 || len(test) == 0 {
		return nil, nil, ErrNoData
	}
	sort.Ints(train)
	sort.Ints(test)
	return train, test, nil
}

// Evaluation summarizes classifier performance on a labeled test set.
type Evaluation struct {
	// Accuracy is the overall fraction of correct argmax predictions.
	Accuracy float64
	// Total is the number of evaluated recipes.
	Total int
	// Confusion[trueRegion][predictedRegion] counts outcomes.
	Confusion map[recipedb.Region]map[recipedb.Region]int
	// PerRegion holds per-class metrics, keyed by region.
	PerRegion map[recipedb.Region]ClassMetrics
	// MajorityBaseline is the accuracy of always predicting the most
	// common training class — the bar the model must clear.
	MajorityBaseline float64
}

// ClassMetrics are one-vs-rest precision/recall/F1 for a region.
type ClassMetrics struct {
	Precision float64
	Recall    float64
	F1        float64
	Support   int
}

// Evaluate runs the classifier over test recipe IDs.
func Evaluate(c *Classifier, store *recipedb.Store, testIDs []int) (*Evaluation, error) {
	if c.classes == nil {
		return nil, ErrUntrained
	}
	ev := &Evaluation{
		Confusion: make(map[recipedb.Region]map[recipedb.Region]int),
		PerRegion: make(map[recipedb.Region]ClassMetrics),
	}
	correct := 0
	trueCount := make(map[recipedb.Region]int)
	predCount := make(map[recipedb.Region]int)
	hit := make(map[recipedb.Region]int)
	for _, rid := range testIDs {
		rec := store.Recipe(rid)
		pred, err := c.PredictRegion(rec.Ingredients)
		if err != nil {
			return nil, fmt.Errorf("classify: recipe %d: %w", rid, err)
		}
		row := ev.Confusion[rec.Region]
		if row == nil {
			row = make(map[recipedb.Region]int)
			ev.Confusion[rec.Region] = row
		}
		row[pred]++
		trueCount[rec.Region]++
		predCount[pred]++
		if pred == rec.Region {
			correct++
			hit[rec.Region]++
		}
		ev.Total++
	}
	if ev.Total == 0 {
		return nil, ErrNoData
	}
	ev.Accuracy = float64(correct) / float64(ev.Total)

	// Majority baseline from training priors: the class with the
	// largest prior, scored against the test distribution.
	best := 0
	for ri, cl := range c.classes {
		if cl.docs > c.classes[best].docs {
			best = ri
		}
	}
	ev.MajorityBaseline = float64(trueCount[c.classes[best].region]) / float64(ev.Total)

	for region, support := range trueCount {
		m := ClassMetrics{Support: support}
		if predCount[region] > 0 {
			m.Precision = float64(hit[region]) / float64(predCount[region])
		}
		m.Recall = float64(hit[region]) / float64(support)
		if m.Precision+m.Recall > 0 {
			m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
		}
		ev.PerRegion[region] = m
	}
	return ev, nil
}
