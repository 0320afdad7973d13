package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the percentile rule: a reported percentile must have at
// least this many samples strictly above its rank, so one outlier can
// never be the whole tail.
const minBeyond = 10

// Metric is one reported figure. Samples is how many measurements it
// summarizes (0 for a plain count); Base names the numerator and
// denominator of a ratio, so every ratio states what it is a share of.
type Metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Base    string  `json:"base,omitempty"`
}

// quantileRank returns the nearest-rank index of quantile q in n sorted
// samples and how many samples lie beyond it.
func quantileRank(n int, q float64) (idx, beyond int) {
	idx = int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx > n-1 {
		idx = n - 1
	}
	return idx, n - 1 - idx
}

// percentile returns the nearest-rank q-quantile of xs, which it sorts
// in place. It fails when fewer than minBeyond samples lie beyond the
// rank: such a percentile is one sample's noise, not a tail.
func percentile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", q*100)
	}
	sort.Float64s(xs)
	idx, beyond := quantileRank(len(xs), q)
	if q > 0.5 && beyond < minBeyond {
		return 0, fmt.Errorf("percentile p%g of %d samples has %d beyond it, need %d", q*100, len(xs), beyond, minBeyond)
	}
	return xs[idx], nil
}

// median returns the median of xs (sorting it), 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := percentile(xs, 0.5)
	return v
}

// tailMetric reports xs's q-quantile under a fixed name. When the
// percentile rule cannot be met it reports 0 and says why in Base, so a
// thin layer never passes one sample off as its tail.
func tailMetric(name, unit string, xs []float64, q float64) Metric {
	m := Metric{Name: name, Unit: unit, Samples: len(xs)}
	v, err := percentile(xs, q)
	if err != nil {
		m.Base = err.Error()
		return m
	}
	m.Value = v
	return m
}

// ratio reports num/den with its base spelled out; a zero denominator
// reports 0 rather than NaN, and the base says so.
func ratio(name, numWhat string, num float64, denWhat string, den float64) Metric {
	m := Metric{Name: name, Unit: "ratio", Base: fmt.Sprintf("%s / %s = %g / %g", numWhat, denWhat, num, den)}
	if den != 0 {
		m.Value = num / den
	}
	return m
}

// per is a ratio in a unit of its own, such as 1/vm or bytes/entry.
func per(name, unit, numWhat string, num float64, denWhat string, den float64) Metric {
	m := ratio(name, numWhat, num, denWhat, den)
	m.Unit = unit
	return m
}

// count reports a plain tally.
func count(name string, n int64) Metric {
	return Metric{Name: name, Value: float64(n), Unit: "count"}
}

// meanOf reports the mean of xs with its sample count.
func meanOf(name, unit string, xs []float64) Metric {
	m := Metric{Name: name, Unit: unit, Samples: len(xs)}
	if len(xs) == 0 {
		return m
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	m.Value = s / float64(len(xs))
	return m
}

// medianOf reports the median of xs with its sample count.
func medianOf(name, unit string, xs []float64) Metric {
	return Metric{Name: name, Value: median(xs), Unit: unit, Samples: len(xs)}
}

// windowTail reports the median over windows of each window's
// q-quantile. With pool set, or when a window is too thin for the
// percentile rule, it takes the quantile of the pooled windows instead;
// when even the pool is too thin, it reports 0 with the reason in Base
// and returns that reason.
func windowTail(name string, wins []window, q float64, pool bool) (Metric, error) {
	var tails, pooled []float64
	thin, nw := false, 0
	for _, w := range wins {
		if len(w.lat) == 0 {
			continue
		}
		nw++
		pooled = append(pooled, w.lat...)
		if v, err := percentile(w.lat, q); err != nil {
			thin = true
		} else {
			tails = append(tails, v)
		}
	}
	if !pool && !thin && len(tails) > 0 {
		return Metric{Name: name, Value: median(tails), Unit: "us", Samples: len(pooled),
			Base: fmt.Sprintf("p%g, median of %d windows", q*100, len(tails))}, nil
	}
	m := tailMetric(name, "us", pooled, q)
	if m.Base != "" {
		return m, fmt.Errorf("%s: %s", name, m.Base)
	}
	m.Base = fmt.Sprintf("p%g, %d windows pooled", q*100, nw)
	return m, nil
}
