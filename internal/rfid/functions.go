package rfid

import (
	"math"
	"strconv"

	"repro/internal/dist"
)

// AreaID names the square-foot floor cell containing (x, y) — the area()
// function of Q1 ("the square foot area that each object belongs to,
// computed by a function on its (x,y,z) location").
func AreaID(x, y Feet) string {
	return areaName(int(math.Floor(x)), int(math.Floor(y)))
}

// areaName renders "A<x>_<y>" without fmt: AreaMasses names a cell per
// tuple per intersected area, which made Sprintf the single hottest
// call of the uncertain GROUP BY under wire-rate ingest.
func areaName(xi, yi int) string {
	var buf [2 * strconv.IntSize]byte
	b := append(buf[:0], 'A')
	b = strconv.AppendInt(b, int64(xi), 10)
	b = append(b, '_')
	b = strconv.AppendInt(b, int64(yi), 10)
	return string(b)
}

// AreaOfDist maps an uncertain location to the area of its mean — the MAP
// assignment used by the fast path of the uncertain GROUP BY. The full
// probabilistic assignment (mass per area cell) is AreaMasses.
func AreaOfDist(x, y dist.Dist) string {
	return AreaID(x.Mean(), y.Mean())
}

// AreaMass is one candidate area with the probability the object is in it.
type AreaMass struct {
	Area string
	P    float64
}

// AreaMasses enumerates the floor cells the uncertain location intersects
// (within ±3σ) with the probability mass of each: P(cell) = (F_x(x1)−F_x(x0))
// × (F_y(y1)−F_y(y0)) under the (axis-independent) location distribution.
// Cells below minMass are dropped.
func AreaMasses(x, y dist.Dist, minMass float64) []AreaMass {
	return AppendAreaMasses(nil, x, y, 1, minMass)
}

// AppendAreaMasses appends AreaMasses(dist.Scale(x, k), dist.Scale(y, k),
// minMass) to dst — k rescales a location into grid-cell units — with the
// same bits. It is the per-tuple form of the uncertain GROUP BY: a Normal
// axis is scaled as a value instead of being boxed into a new Dist, and the
// per-axis cell lists live on the stack, so a caller appending into a stack
// buffer allocates only the cell names.
func AppendAreaMasses(dst []AreaMass, x, y dist.Dist, k, minMass float64) []AreaMass {
	if minMass <= 0 {
		minMass = 0.01
	}
	var xb, yb [16]cellMass
	xCells := scaledAxisCells(xb[:0], x, k)
	yCells := scaledAxisCells(yb[:0], y, k)
	for _, xc := range xCells {
		for _, yc := range yCells {
			p := xc.p * yc.p
			if p >= minMass {
				dst = append(dst, AreaMass{Area: areaName(xc.i, yc.i), P: p})
			}
		}
	}
	return dst
}

type cellMass struct {
	i int
	p float64
}

// scaledAxisCells is axisCells over dist.Scale(d, k), taking the Normal
// case (the T-operator's location posteriors) without boxing the scaled
// value.
func scaledAxisCells(dst []cellMass, d dist.Dist, k float64) []cellMass {
	if n, ok := d.(dist.Normal); ok && k != 1 && k != 0 {
		n = n.ScaleShift(k, 0) // exactly dist.Scale's Normal case
		return axisCells(dst, n.Mean(), n.Variance(), n.CDF)
	}
	d = dist.Scale(d, k)
	return axisCells(dst, d.Mean(), d.Variance(), d.CDF)
}

// axisCells appends the unit cells within ±3σ of the mean that carry more
// than 1e-6 of the axis distribution's mass, F(i+1) − F(i). Each cell
// boundary's CDF is evaluated once and reused by the next cell.
func axisCells(dst []cellMass, mu, variance float64, cdf func(float64) float64) []cellMass {
	sd := math.Sqrt(variance)
	lo := int(math.Floor(mu - 3*sd))
	hi := int(math.Floor(mu + 3*sd))
	below := cdf(float64(lo))
	for i := lo; i <= hi; i++ {
		above := cdf(float64(i + 1))
		if p := above - below; p > 1e-6 {
			dst = append(dst, cellMass{i: i, p: p})
		}
		below = above
	}
	return dst
}

// Weight returns the registered weight (pounds) for a tag — Q1's
// weight(tag_id) lookup function against the object registry.
func (w *Warehouse) Weight(tagID int64) float64 {
	if o := w.ObjectByID(tagID); o != nil {
		return o.Weight
	}
	return 0
}

// ObjectType returns the registered type for a tag — Q2's
// object_type(tag_id).
func (w *Warehouse) ObjectType(tagID int64) string {
	if o := w.ObjectByID(tagID); o != nil {
		return o.Type
	}
	return "unknown"
}
