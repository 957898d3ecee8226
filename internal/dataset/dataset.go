// Package dataset generates the synthetic stand-ins for the experimental
// datasets of Table 1. The real data (US patent citations, ACS income,
// HepPH citations, Google-trends counts, an IP trace, Adult census
// capital-loss, medical expenses, and a geo-located Twitter crawl) is not
// redistributable, so each generator reproduces the statistics the paper
// reports and the algorithms are sensitive to: domain size, scale (total
// count) and the percentage of zero counts, with a clustered heavy-tailed
// shape (Zipf mass over randomly placed clusters) typical of the originals.
// ARCHITECTURE.md "Substitutions" records the substitution and why it
// preserves the experimental comparisons.
package dataset

import (
	"fmt"
	"math"

	"github.com/privacylab/blowfish/internal/noise"
)

// Spec describes a dataset's published statistics (Table 1).
type Spec struct {
	// Name is the Table 1 identifier (A–G, T25, T50, T100).
	Name string
	// Description paraphrases the Table 1 description.
	Description string
	// Dims is the domain shape; 1-D datasets use a single entry.
	Dims []int
	// Scale is the total number of records.
	Scale float64
	// ZeroFrac is the fraction of domain cells with a zero count.
	ZeroFrac float64
	// Clusters controls how many contiguous clusters carry the mass.
	Clusters int
}

// K returns the flattened domain size.
func (s Spec) K() int {
	k := 1
	for _, d := range s.Dims {
		k *= d
	}
	return k
}

// Table1 returns the specs of all ten experimental datasets with the
// published domain size, scale and zero-count percentage.
func Table1() []Spec {
	return []Spec{
		{Name: "A", Description: "US patent citation links by time", Dims: []int{4096}, Scale: 2.8e7, ZeroFrac: 0.0620, Clusters: 24},
		{Name: "B", Description: "ACS personal income 2001-2011", Dims: []int{4096}, Scale: 2.0e7, ZeroFrac: 0.4497, Clusters: 16},
		{Name: "C", Description: "HepPH citation links by time", Dims: []int{4096}, Scale: 3.5e5, ZeroFrac: 0.2117, Clusters: 20},
		{Name: "D", Description: "search term 'Obama' frequency 2004-2010", Dims: []int{4096}, Scale: 3.4e5, ZeroFrac: 0.5103, Clusters: 12},
		{Name: "E", Description: "external connections per internal host (IP trace)", Dims: []int{4096}, Scale: 2.6e4, ZeroFrac: 0.9661, Clusters: 8},
		{Name: "F", Description: "Adult census 'capital loss'", Dims: []int{4096}, Scale: 1.8e4, ZeroFrac: 0.9708, Clusters: 6},
		{Name: "G", Description: "personal medical expenses survey", Dims: []int{4096}, Scale: 9.4e3, ZeroFrac: 0.7480, Clusters: 10},
		{Name: "T100", Description: "tweet counts by geo location, 100x100 grid", Dims: []int{100, 100}, Scale: 1.9e5, ZeroFrac: 0.8493, Clusters: 40},
		{Name: "T50", Description: "tweet counts by geo location, 50x50 grid", Dims: []int{50, 50}, Scale: 1.9e5, ZeroFrac: 0.6924, Clusters: 40},
		{Name: "T25", Description: "tweet counts by geo location, 25x25 grid", Dims: []int{25, 25}, Scale: 1.9e5, ZeroFrac: 0.4320, Clusters: 40},
	}
}

// ByName returns the Table 1 spec with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range Table1() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown dataset %q", name)
}

// Generate synthesizes a histogram matching the spec: exactly
// round(ZeroFrac·K) zero cells, the remaining cells arranged in Clusters
// contiguous runs (in row-major order for grids) with Zipf-distributed
// cluster masses and log-normal within-cluster variation, rescaled so the
// total equals Scale.
func Generate(s Spec, src *noise.Source) []float64 {
	k := s.K()
	x := make([]float64, k)
	nonZero := k - int(math.Round(s.ZeroFrac*float64(k)))
	if nonZero <= 0 {
		return x
	}
	clusters := s.Clusters
	if clusters < 1 {
		clusters = 1
	}
	if clusters > nonZero {
		clusters = nonZero
	}
	// Split the non-zero cells into cluster lengths (roughly equal with
	// random remainders), then place the clusters at random disjoint starts.
	lengths := make([]int, clusters)
	base := nonZero / clusters
	rem := nonZero % clusters
	for i := range lengths {
		lengths[i] = base
		if i < rem {
			lengths[i]++
		}
	}
	starts := placeClusters(k, lengths, src)
	// Zipf masses: cluster i gets weight 1/(i+1).
	var weightSum float64
	for i := 0; i < clusters; i++ {
		weightSum += 1 / float64(i+1)
	}
	var total float64
	for i, start := range starts {
		mass := (1 / float64(i+1)) / weightSum
		for j := 0; j < lengths[i]; j++ {
			// Log-normal within-cluster variation keeps counts positive and
			// heavy tailed.
			v := math.Exp(0.8 * src.NormFloat64())
			x[start+j] = mass * v
		}
	}
	for _, v := range x {
		total += v
	}
	// Rescale to the published scale and round to integer counts, keeping
	// non-zero cells at ≥ 1 so the zero fraction stays exact.
	factor := s.Scale / total
	for i, v := range x {
		if v == 0 {
			continue
		}
		c := math.Round(v * factor)
		if c < 1 {
			c = 1
		}
		x[i] = c
	}
	return x
}

// placeClusters picks non-overlapping start offsets for the cluster lengths
// by distributing the leftover free space randomly between them.
func placeClusters(k int, lengths []int, src *noise.Source) []int {
	var used int
	for _, l := range lengths {
		used += l
	}
	free := k - used
	gaps := make([]int, len(lengths)+1)
	for i := 0; i < free; i++ {
		gaps[src.Intn(len(gaps))]++
	}
	starts := make([]int, len(lengths))
	pos := 0
	for i, l := range lengths {
		pos += gaps[i]
		starts[i] = pos
		pos += l
	}
	return starts
}

// Stats reports the realized scale and zero fraction of a histogram, used
// by the Table 1 reproduction to compare against the spec.
func Stats(x []float64) (scale float64, zeroFrac float64) {
	zeros := 0
	for _, v := range x {
		scale += v
		if v == 0 {
			zeros++
		}
	}
	return scale, float64(zeros) / float64(len(x))
}

// AggregateGrid sums a rows×cols grid histogram down to a coarser
// (rows/f)×(cols/f) grid, mirroring the paper's aggregation of the Twitter
// data to 100², 50² and 25². rows and cols must be divisible by f.
func AggregateGrid(x []float64, rows, cols, f int) ([]float64, error) {
	if rows%f != 0 || cols%f != 0 {
		return nil, fmt.Errorf("dataset: grid %dx%d not divisible by %d", rows, cols, f)
	}
	nr, nc := rows/f, cols/f
	out := make([]float64, nr*nc)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out[(r/f)*nc+c/f] += x[r*cols+c]
		}
	}
	return out, nil
}

// Aggregate1D sums adjacent bins of a 1-D histogram by factor f (domain must
// be divisible by f), mirroring the paper's domain-size sweep over dataset D
// (4096 → 2048 → 1024 → 512).
func Aggregate1D(x []float64, f int) ([]float64, error) {
	if len(x)%f != 0 {
		return nil, fmt.Errorf("dataset: domain %d not divisible by %d", len(x), f)
	}
	out := make([]float64, len(x)/f)
	for i, v := range x {
		out[i/f] += v
	}
	return out, nil
}
