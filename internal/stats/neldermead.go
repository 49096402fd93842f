package stats

import (
	"fmt"
	"math"
)

// NelderMeadOptions tune the downhill-simplex minimizer.
type NelderMeadOptions struct {
	// MaxIter bounds iterations (default 2000).
	MaxIter int
}

func (o *NelderMeadOptions) setDefaults() {
	if o.MaxIter == 0 {
		o.MaxIter = 2000
	}
}

// NelderMead minimizes f starting from x0 using the downhill-simplex
// method — the standard derivative-free workhorse for the small
// parameter-fitting problems the model characterization needs. It
// returns the best point found and its value.
func NelderMead(f func([]float64) float64, x0 []float64, opts NelderMeadOptions) ([]float64, float64, error) {
	opts.setDefaults()
	n := len(x0)
	if n == 0 {
		return nil, 0, fmt.Errorf("stats: empty start point")
	}
	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
		// tol is the convergence threshold on the simplex's
		// function-value spread; step the initial simplex displacement
		// per coordinate, relative to |x|+1.
		tol  = 1e-12
		step = 0.1
	)

	// initial simplex
	pts := make([][]float64, n+1)
	vals := make([]float64, n+1)
	for i := range pts {
		p := append([]float64(nil), x0...)
		if i > 0 {
			p[i-1] += step * (math.Abs(p[i-1]) + 1)
		}
		pts[i] = p
		vals[i] = f(p)
		if math.IsNaN(vals[i]) {
			return nil, 0, fmt.Errorf("stats: objective NaN at start simplex")
		}
	}

	order := func() {
		// insertion sort by value; simplexes are tiny
		for i := 1; i < len(vals); i++ {
			for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
				vals[j], vals[j-1] = vals[j-1], vals[j]
				pts[j], pts[j-1] = pts[j-1], pts[j]
			}
		}
	}
	centroid := func() []float64 {
		c := make([]float64, n)
		for _, p := range pts[:n] {
			for k, v := range p {
				c[k] += v
			}
		}
		for k := range c {
			c[k] /= float64(n)
		}
		return c
	}
	combine := func(c, p []float64, t float64) []float64 {
		out := make([]float64, n)
		for k := range out {
			out[k] = c[k] + t*(c[k]-p[k])
		}
		return out
	}

	// xspread is the simplex extent; value-spread alone can hit zero on
	// plateaus or symmetric kinks while the simplex is still large.
	xspread := func() float64 {
		s := 0.0
		for k := 0; k < n; k++ {
			s = math.Max(s, math.Abs(pts[n][k]-pts[0][k]))
		}
		return s
	}

	order()
	for iter := 0; iter < opts.MaxIter; iter++ {
		if vals[n]-vals[0] <= tol*(math.Abs(vals[0])+tol) &&
			xspread() <= 1e-9*(math.Abs(pts[0][0])+1) {
			break
		}
		c := centroid()
		refl := combine(c, pts[n], alpha)
		fr := f(refl)
		switch {
		case fr < vals[0]:
			exp := combine(c, pts[n], gamma)
			if fe := f(exp); fe < fr {
				pts[n], vals[n] = exp, fe
			} else {
				pts[n], vals[n] = refl, fr
			}
		case fr < vals[n-1]:
			pts[n], vals[n] = refl, fr
		default:
			contr := combine(c, pts[n], -rho)
			if fc := f(contr); fc < vals[n] {
				pts[n], vals[n] = contr, fc
			} else {
				for i := 1; i <= n; i++ {
					for k := range pts[i] {
						pts[i][k] = pts[0][k] + sigma*(pts[i][k]-pts[0][k])
					}
					vals[i] = f(pts[i])
				}
			}
		}
		order()
	}
	return pts[0], vals[0], nil
}
