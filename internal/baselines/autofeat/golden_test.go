package autofeat

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"strings"
	"testing"

	"smartfeat/internal/dataframe"
)

// runDigest hashes what a run hands to its callers: the candidate count, the
// selected names in order and every bit of each selected column.
func runDigest(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(res.Generated))
	h.Write(buf[:])
	for _, name := range res.NewColumns {
		h.Write([]byte(name))
		h.Write([]byte{0})
		for _, v := range res.Frame.Column(name).Floats() {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// zeroNaNFrame has a divisor that is zero on ~40 % of rows and a feature with
// NaN entries: ratios through z come out NaN on those rows, so the label's
// strongest candidates (x/z and kin) score high on the remaining rows but
// fail the 30 % null rule.
func zeroNaNFrame(t *testing.T) *dataframe.Frame {
	t.Helper()
	const n = 320
	rng := rand.New(rand.NewSource(21))
	x, z, w, y := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = rng.NormFloat64() + 2
		if rng.Float64() < 0.4 {
			z[i] = 0
		} else {
			z[i] = 0.5 + 1.5*rng.Float64()
		}
		w[i] = rng.NormFloat64()
		s := 0.3*w[i] + 0.5*rng.NormFloat64()
		if z[i] != 0 {
			s += x[i] / z[i]
		}
		if s > 1.5 {
			y[i] = 1
		}
		if rng.Float64() < 0.05 {
			w[i] = math.NaN()
		}
	}
	f := dataframe.New()
	for _, c := range []struct {
		name string
		vals []float64
	}{{"x", x}, {"z", z}, {"w", w}, {"y", y}} {
		if err := f.AddNumeric(c.name, c.vals); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// TestRunGoldenDigest pins AutoFeat's exact output — candidate count,
// selected names and each selected column bit for bit — on two frames: one
// where ratios produce NaN and the null rule fires, and one scored on a
// training-row subset.
func TestRunGoldenDigest(t *testing.T) {
	cases := []struct {
		name      string
		frame     func(*testing.T) *dataframe.Frame
		trainRows func(n int) []int
		generated int
		columns   string
		digest    string
	}{
		{"zeros-and-nan", zeroNaNFrame, nil, 321,
			"z^2*z^3,x*sqrt(z),log(x)*z^3,x^3*sqrt(z),sqrt(z)",
			"00ebf6e3e098a3729614d3f9e48c6a47992c6c0335b1a09789b9c7109b0b8d11"},
		{"train-rows", func(t *testing.T) *dataframe.Frame { return synthFrame(t, 500, 22) },
			func(n int) []int { return rand.New(rand.NewSource(23)).Perm(n)[:n*3/4] }, 142,
			"a*sqrt(a),a^2/sqrt(b),a^2/1/b,a^2*1/b,a^2*a^3",
			"dbe91b3141b79498ebd01c083c77e92b880f08c7bf4bd0b562353e81f0cda588"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.frame(t)
			cfg := DefaultConfig()
			if tc.trainRows != nil {
				cfg.TrainRows = tc.trainRows(f.Len())
			}
			res, err := Run(f, "y", cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Generated != tc.generated {
				t.Errorf("generated %d, want %d", res.Generated, tc.generated)
			}
			if got := strings.Join(res.NewColumns, ","); got != tc.columns {
				t.Errorf("new columns %q, want %q", got, tc.columns)
			}
			if got := runDigest(res); got != tc.digest {
				t.Errorf("digest %s, want %s", got, tc.digest)
			}
		})
	}
}
