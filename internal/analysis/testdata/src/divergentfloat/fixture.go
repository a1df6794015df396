// Package fixture exercises the divergentfloat analyzer: values whose bits
// depend on an order Go leaves unspecified (map iteration, select races,
// goroutine fan-in) must not reach an order-sensitive statistic (the test
// registers statMAF as one) without an ordering barrier — a sort, an indexed
// merge, or a //gendpr:ordered function.
package fixture

import "sort"

// statMAF is the fixture's order-sensitive statistic (registered by the
// test): every federation member must compute it bit-identically.
func statMAF(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// mapOrder feeds map-iteration-ordered values straight into the statistic:
// float addition is not associative, so members disagree in the low bits.
func mapOrder(m map[int]float64) float64 {
	var vals []float64
	for _, v := range m {
		vals = append(vals, v)
	}
	return statMAF(vals) // want "order-nondeterministic value"
}

// sortedFirst re-establishes a canonical order before the statistic: silent.
func sortedFirst(m map[int]float64) float64 {
	vals := make([]float64, 0, len(m))
	for _, v := range m {
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	return statMAF(vals)
}

// mergeIndexed lands every value at its key-determined index, so the output
// is canonical no matter the iteration order.
//
//gendpr:ordered: each value lands at its key-determined index, so the output does not depend on map iteration order
func mergeIndexed(m map[int]float64, n int) []float64 {
	out := make([]float64, n)
	for k, v := range m {
		if k >= 0 && k < n {
			out[k] = v
		}
	}
	return out
}

// indexMerged goes through the annotated barrier: silent.
func indexMerged(m map[int]float64) float64 {
	return statMAF(mergeIndexed(m, 8))
}

// selectRace: which ready case wins is a scheduler race.
func selectRace(a, b chan float64) float64 {
	var vals []float64
	for i := 0; i < 2; i++ {
		select {
		case v := <-a:
			vals = append(vals, v)
		case v := <-b:
			vals = append(vals, v)
		}
	}
	return statMAF(vals) // want "order-nondeterministic value"
}

// fanIn: goroutine completion order decides the accumulation order.
func fanIn(parts [][]float64) float64 {
	ch := make(chan float64)
	for _, p := range parts {
		p := p
		go func() { ch <- sum(p) }()
	}
	var vals []float64
	for i := 0; i < len(parts); i++ {
		vals = append(vals, <-ch)
	}
	return statMAF(vals) // want "order-nondeterministic value"
}

// feed reaches the statistic one hop down; the summary carries the blame
// back to the tainted call site.
func feed(xs []float64) float64 { return statMAF(xs) }

func twoHop(m map[int]float64) float64 {
	var vals []float64
	for _, v := range m {
		vals = append(vals, v)
	}
	return feed(vals) // want "order-nondeterministic value"
}

// ranker dispatches the statistic through an interface: the may-call
// summaries of the implementations still carry the blame.
type ranker interface {
	rank(xs []float64) float64
}

type mafRanker struct{}

func (mafRanker) rank(xs []float64) float64 { return statMAF(xs) }

func dispatched(r ranker, m map[int]float64) float64 {
	var vals []float64
	for _, v := range m {
		vals = append(vals, v)
	}
	return r.rank(vals) // want "order-nondeterministic value"
}

// captured: a closure capturing the unordered slice still observes the race.
func captured(m map[int]float64) float64 {
	var vals []float64
	for _, v := range m {
		vals = append(vals, v)
	}
	f := func() float64 {
		return statMAF(vals) // want "order-nondeterministic value"
	}
	return f()
}

// meanStat is a statistic reached as a method: the test registers
// (*meanStat).mean as an order-sensitive sink, keyed on the method.
type meanStat struct{ n int }

func (s *meanStat) mean(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	s.n = len(xs)
	return t / float64(s.n)
}

func methodSink(s *meanStat, m map[int]float64) float64 {
	var vals []float64
	for _, v := range m {
		vals = append(vals, v)
	}
	return s.mean(vals) // want "order-nondeterministic value"
}

// justified: a reviewed exception stays silent.
func justified(m map[int]float64) float64 {
	var vals []float64
	for _, v := range m {
		vals = append(vals, v)
	}
	//gendpr:allow(divergentfloat): fixture exercises the suppression path
	return statMAF(vals)
}
