package rig

import "math/rand"

// Point is one click target for the planner.
type Point struct {
	X, Y int
}

// TourLength computes the total Manhattan travel of visiting the points in
// order, starting from start and returning to it — the paper's TSP
// formulation ("the shortest route that visits each ESV exactly once and
// returns to the origin ESV").
func TourLength(start Point, order []Point) float64 {
	if len(order) == 0 {
		return 0
	}
	total := 0.0
	cur := start
	for _, p := range order {
		total += manhattan(cur.X, cur.Y, p.X, p.Y)
		cur = p
	}
	total += manhattan(cur.X, cur.Y, start.X, start.Y)
	return total
}

// NearestNeighbor orders the points greedily by closest-next from start —
// the heuristic §3.1 selects because exhaustive search is NP-hard.
func NearestNeighbor(start Point, points []Point) []Point {
	remaining := append([]Point(nil), points...)
	out := make([]Point, 0, len(points))
	cur := start
	for len(remaining) > 0 {
		best, bestDist := 0, manhattan(cur.X, cur.Y, remaining[0].X, remaining[0].Y)
		for i := 1; i < len(remaining); i++ {
			if d := manhattan(cur.X, cur.Y, remaining[i].X, remaining[i].Y); d < bestDist {
				best, bestDist = i, d
			}
		}
		cur = remaining[best]
		out = append(out, cur)
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	return out
}

// RandomOrder shuffles the points — the baseline §3.1 compares against
// (nearest neighbour saved 7.3% of movement over random on 14 ESVs).
func RandomOrder(points []Point, rng *rand.Rand) []Point {
	out := append([]Point(nil), points...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
