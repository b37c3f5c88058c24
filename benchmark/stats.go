package main

import (
	"math"
	"slices"
)

// quantile returns the p-th quantile of xs by nearest rank, sorting xs in
// place. xs must not be empty.
func quantile[T int64 | float64](xs []T, p float64) T {
	slices.Sort(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

// quiet is the good-side decile of one figure taken in every slice of the
// window: the first decile of a cost, the ninth of a rate. The sandbox is a
// few processors of a shared host, and what its neighbours do only ever
// adds time, in bursts of seconds during which a processor runs at little
// more than half its speed; the decile reads the figure off the tenth of the
// window they disturbed least, and holds as long as they leave two or three
// seconds of it alone. A cost the program pays in every second moves it; a
// stall in some seconds only does not, and shows in the traced run's
// whole-window ref.* figures instead. xs must not be empty.
func quiet(xs []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return quantile(slices.Clone(xs), 0.9)
	}
	return quantile(slices.Clone(xs), 0.1)
}
