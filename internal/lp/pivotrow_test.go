package lp

import (
	"math"
	"testing"

	"github.com/ebsn/igepa/internal/xrand"
)

// plainDevexArgmax is the reference entering scan: divide for every
// eligible column, keep the first strict maximum.
func plainDevexArgmax(rvec, weights []float64) int {
	best := -1
	bestScore := 0.0
	for j, r := range rvec {
		if r <= reducedTol {
			continue
		}
		if score := r * r / weights[j]; score > bestScore {
			best, bestScore = j, score
		}
	}
	return best
}

// TestDevexArgmaxMatchesPlainScan is the property test of the division-free
// pre-filter: on random reduced-cost/weight vectors built to hit its edges —
// exact score ties, near-ties one ulp apart, r exactly at reducedTol, unit
// weights, huge weights and huge reduced costs — the filtered argmax returns
// the same index as the plain r²/w scan, over the full range and over every
// chunk split the pooled pricing pass could use.
func TestDevexArgmaxMatchesPlainScan(t *testing.T) {
	rng := xrand.New(2024)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(200)
		rvec := make([]float64, n)
		weights := make([]float64, n)
		for j := range rvec {
			switch rng.Intn(8) {
			case 0:
				rvec[j] = reducedTol
			case 1:
				rvec[j] = -rng.Float64()
			case 2:
				rvec[j] = math.Nextafter(reducedTol, 1)
			case 3:
				rvec[j] = 1e150 * rng.Float64()
			default:
				rvec[j] = rng.Float64() * 10
			}
			switch rng.Intn(5) {
			case 0, 1:
				weights[j] = 1
			case 2:
				weights[j] = math.Ldexp(1+rng.Float64(), 100+rng.Intn(900))
			default:
				weights[j] = 1 + rng.Float64()*1e8
			}
		}
		// Plant ties and near-ties against an earlier column: the same
		// (r, w) pair, the same score through a scaled pair, and a score
		// perturbed by one ulp either way.
		for k := 0; k < 1+n/10; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			switch rng.Intn(4) {
			case 0:
				rvec[b], weights[b] = rvec[a], weights[a]
			case 1:
				rvec[b], weights[b] = 2*rvec[a], 4*weights[a]
			case 2:
				rvec[b], weights[b] = rvec[a], math.Nextafter(weights[a], math.Inf(1))
			case 3:
				rvec[b], weights[b] = math.Nextafter(rvec[a], math.Inf(1)), weights[a]
			}
		}
		want := plainDevexArgmax(rvec, weights)
		if got, _ := devexArgmax(rvec, weights, 0, n); got != want {
			t.Fatalf("trial %d: filtered argmax %d, plain scan %d", trial, got, want)
		}
		// chunked: combine per-chunk winners like priceDevex does
		chunk := 1 + rng.Intn(n)
		best, bestScore := -1, 0.0
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			if j, s := devexArgmax(rvec, weights, lo, hi); j >= 0 && s > bestScore {
				best, bestScore = j, s
			}
		}
		if best != want {
			t.Fatalf("trial %d: chunk=%d argmax %d, plain scan %d", trial, chunk, best, want)
		}
	}
}

// TestScatterPivotRowMatchesColumnDot pins the pivot-row kernel's
// bit-identity contract directly: on a matrix whose columns' row indices
// strictly ascend, the sparse row scatter yields exactly the bits of the
// per-column dot product βᵀa_j for every column it visits, exactly zero α
// for every column it skips, and β_r itself for row r's slack.
func TestScatterPivotRowMatchesColumnDot(t *testing.T) {
	rng := xrand.New(77)
	forcePivotRowFactor(t, 0)
	for trial := 0; trial < 30; trial++ {
		p := randomPacking(rng, 20+rng.Intn(60), 5+rng.Intn(20), 6)
		for k := range p.Vals {
			p.Vals[k] = rng.Float64()*2 - 0.5
		}
		ascendColumns(p)
		st := newRevisedState(p, true)
		st.beta = make([]float64, st.m)
		for i := range st.beta {
			if rng.Intn(3) == 0 {
				st.beta[i] = rng.Float64()*2 - 1
			}
		}
		if !st.scatterPivotRow() {
			t.Fatalf("trial %d: forced-sparse scatter declined", trial)
		}
		got := make([]float64, st.n+st.m)
		for _, j := range st.candList {
			got[j] = st.alphaVec[j]
		}
		for j := 0; j < st.n; j++ {
			want := 0.0
			for k := p.ColPtr[j]; k < p.ColPtr[j+1]; k++ {
				want += st.beta[p.Rows[k]] * p.Vals[k]
			}
			if math.Float64bits(got[j]+0) != math.Float64bits(want+0) {
				t.Fatalf("trial %d: column %d: scatter %v, dot %v", trial, j, got[j], want)
			}
		}
		for i := 0; i < st.m; i++ {
			if got[st.n+i] != st.beta[i] {
				t.Fatalf("trial %d: slack %d: scatter %v, β %v", trial, i, got[st.n+i], st.beta[i])
			}
		}
	}
}
