package expr

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func evalConst(t *testing.T, src string) float64 {
	t.Helper()
	e, err := Compile(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return e.Eval(nil)
}

func TestArithmetic(t *testing.T) {
	cases := map[string]float64{
		"1 + 2":          3,
		"2 * 3 + 4":      10,
		"2 + 3 * 4":      14,
		"(2 + 3) * 4":    20,
		"10 / 4":         2.5,
		"2 ^ 3":          8,
		"2 ** 3":         8,
		"2 ^ 3 ^ 2":      512, // right associative
		"-3 + 5":         2,
		"--4":            4,
		"-2 ^ 2":         -4, // Python convention: -2**2 == -(2**2)
		"1.5e2":          150,
		"2.5E+1":         25,
		"min(3, 1, 2)":   1,
		"max(3, 1, 2)":   3,
		"abs(-7)":        7,
		"sqrt(16)":       4,
		"pow(3, 2)":      9,
		"clip(5, 0, 3)":  3,
		"clip(-1, 0, 3)": 0,
		"clip(2, 0, 3)":  2,
		"round(2.6)":     3,
		"floor(2.6)":     2,
		"ceil(2.2)":      3,
		"log(1)":         0,
		"log1p(0)":       0,
		"exp(0)":         1,
		"1 - 2 - 3":      -4, // left associative
		"12 / 3 / 2":     2,
	}
	for src, want := range cases {
		if got := evalConst(t, src); math.Abs(got-want) > 1e-9 {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestUnaryMinusBinding(t *testing.T) {
	// Unary minus applies after exponentiation, matching Python: -2**2 = -4.
	if got := evalConst(t, "-2 ^ 2"); got != -4 {
		t.Fatalf("-2^2 = %v, want -4", got)
	}
	// Explicit grouping overrides.
	if v := evalConst(t, "(-2) ^ 2"); v != 4 {
		t.Fatalf("(-2)^2 = %v", v)
	}
	if v := evalConst(t, "-(2 ^ 2)"); v != -4 {
		t.Fatalf("-(2^2) = %v", v)
	}
}

func TestVariables(t *testing.T) {
	e := MustCompile("a + b * 2")
	got := e.Eval(map[string]float64{"a": 1, "b": 3})
	if got != 7 {
		t.Fatalf("got %v", got)
	}
	vars := e.Vars()
	if len(vars) != 2 || vars[0] != "a" || vars[1] != "b" {
		t.Fatalf("vars = %v", vars)
	}
	// Missing variable → NaN.
	if !math.IsNaN(e.Eval(map[string]float64{"a": 1})) {
		t.Fatal("missing var should be NaN")
	}
}

func TestDottedAndBacktickIdentifiers(t *testing.T) {
	e := MustCompile("FSW.1 / FSP.1")
	got := e.Eval(map[string]float64{"FSW.1": 10, "FSP.1": 4})
	if got != 2.5 {
		t.Fatalf("got %v", got)
	}
	e = MustCompile("`Age of car` * 2")
	if got := e.Eval(map[string]float64{"Age of car": 3}); got != 6 {
		t.Fatalf("backtick ident: %v", got)
	}
	e = MustCompile("city=SF + 1")
	if got := e.Eval(map[string]float64{"city=SF": 1}); got != 2 {
		t.Fatalf("dummy ident: %v", got)
	}
}

func TestSafeMath(t *testing.T) {
	nanCases := []string{"1 / 0", "log(0)", "log(-1)", "sqrt(-1)", "log1p(-2)"}
	for _, src := range nanCases {
		if got := evalConst(t, src); !math.IsNaN(got) {
			t.Errorf("%q = %v, want NaN", src, got)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"", "1 +", "(1", "1)", "foo(1)", "min(1)", "pow(1,2,3)",
		"1 2", "a b", "$", "`unclosed", "1..2.3.4e", "min(,)", "``",
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("%q should fail to compile", src)
		}
	}
}

func TestErrorMessagesMentionPosition(t *testing.T) {
	_, err := Compile("1 + $")
	if err == nil || !strings.Contains(err.Error(), "position") && !strings.Contains(err.Error(), "at") {
		t.Fatalf("error should locate the problem: %v", err)
	}
	_, err = Compile("nosuchfn(1)")
	if err == nil || !strings.Contains(err.Error(), "available") {
		t.Fatalf("unknown function error should list builtins: %v", err)
	}
}

func TestEvalRows(t *testing.T) {
	e := MustCompile("x / y")
	out, err := e.EvalRows(map[string][]float64{
		"x": {10, 20, 30, 5},
		"y": {2, 4, 0, math.NaN()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 5 || out[1] != 5 {
		t.Fatalf("rows wrong: %v", out)
	}
	if !math.IsNaN(out[2]) {
		t.Fatal("÷0 row should be NaN")
	}
	if !math.IsNaN(out[3]) {
		t.Fatal("NaN input row should propagate")
	}
}

func TestEvalRowsErrors(t *testing.T) {
	e := MustCompile("x + y")
	if _, err := e.EvalRows(map[string][]float64{"x": {1}}); err == nil {
		t.Fatal("missing column should error")
	}
	if _, err := e.EvalRows(map[string][]float64{"x": {1}, "y": {1, 2}}); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestEvalRowsConstant(t *testing.T) {
	e := MustCompile("2 + 3")
	out, err := e.EvalRows(nil)
	if err != nil || len(out) != 1 || out[0] != 5 {
		t.Fatalf("constant eval: %v %v", out, err)
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		"a + b * c",
		"min(a, 2) / max(b, 1)",
		"-(x ^ 2) + `odd name`",
		"log1p(t) - 3.5",
	}
	for _, src := range srcs {
		e := MustCompile(src)
		re, err := Compile(e.String())
		if err != nil {
			t.Fatalf("rendered form %q does not reparse: %v", e.String(), err)
		}
		vars := map[string]float64{"a": 2, "b": 3, "c": 4, "x": 5, "odd name": 6, "t": 7}
		if g1, g2 := e.Eval(vars), re.Eval(vars); math.Abs(g1-g2) > 1e-12 {
			t.Fatalf("round trip changed value: %v vs %v", g1, g2)
		}
	}
}

func TestSourceAccessor(t *testing.T) {
	e := MustCompile("a+1")
	if e.Source() != "a+1" {
		t.Fatal("Source should return original text")
	}
}

func TestBuiltinsSorted(t *testing.T) {
	bs := Builtins()
	if len(bs) < 10 {
		t.Fatalf("expected ≥10 builtins, got %d", len(bs))
	}
	for i := 1; i < len(bs); i++ {
		if bs[i-1] >= bs[i] {
			t.Fatal("builtins not sorted")
		}
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompile should panic on bad input")
		}
	}()
	MustCompile("(((")
}

func TestCommutativityProperty(t *testing.T) {
	add := MustCompile("a + b")
	mul := MustCompile("a * b")
	prop := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		v1 := add.Eval(map[string]float64{"a": a, "b": b})
		v2 := add.Eval(map[string]float64{"a": b, "b": a})
		m1 := mul.Eval(map[string]float64{"a": a, "b": b})
		m2 := mul.Eval(map[string]float64{"a": b, "b": a})
		return (v1 == v2 || (math.IsNaN(v1) && math.IsNaN(v2))) &&
			(m1 == m2 || (math.IsNaN(m1) && math.IsNaN(m2)))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDivisionInverseProperty(t *testing.T) {
	div := MustCompile("(a * b) / b")
	prop := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) || b == 0 {
			return true
		}
		got := div.Eval(map[string]float64{"a": a, "b": b})
		if math.IsNaN(got) || math.IsInf(got, 0) {
			return true // overflow regime; fine
		}
		diff := math.Abs(got - a)
		scale := math.Max(1, math.Abs(a))
		return diff/scale < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// fuzzSources seeds the fuzz targets: expressions from this file's tests,
// and the formulas internal/core's tests and the simulated function
// generator write.
var fuzzSources = []string{
	// Expressions from this file's tests.
	"2 ^ 3 ^ 2", "2 ** 3", "-2 ^ 2", "--4", "1.5e2", "2.5E+1", "min(3, 1, 2)",
	"clip(-1, 0, 3)", "log1p(0)", "12 / 3 / 2", "a + b * 2", "FSW.1 / FSP.1",
	"`Age of car` * 2", "city=SF + 1", "1 / 0", "1 +", "`unclosed", "1..2.3.4e",
	"min(,)", "``", "nosuchfn(1)",
	// Generated formulas from internal/core's tests.
	"Age / 2", "a + b / c", "(((bad", "Ghost + 1", "Sex + 1",
}

// FuzzCompile pins the compiler on arbitrary input: it never panics, and
// the printed form of anything it accepts compiles back to the same printed
// form, so String is source the compiler can re-read. testdata/fuzz holds
// the inputs that once broke this.
func FuzzCompile(f *testing.F) {
	for _, src := range fuzzSources {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Compile(src)
		if err != nil {
			return
		}
		printed := e.String()
		again, err := Compile(printed)
		if err != nil {
			t.Fatalf("Compile(%q) prints %q, which does not compile: %v", src, printed, err)
		}
		if got := again.String(); got != printed {
			t.Fatalf("Compile(%q) prints %q, which re-prints as %q", src, printed, got)
		}
	})
}

// mapEval is the map-based tree walk the slot evaluator replaced: every
// variable is read from a map by name, and every call allocates its
// argument slice. FuzzEvalRows holds the evaluator to it bit for bit.
func mapEval(n Node, vars map[string]float64) float64 {
	switch n := n.(type) {
	case *numberNode:
		return n.v
	case *varNode:
		if v, ok := vars[n.name]; ok {
			return v
		}
		return math.NaN()
	case *negNode:
		return -mapEval(n.inner, vars)
	case *callNode:
		args := make([]float64, len(n.args))
		for i, a := range n.args {
			args[i] = mapEval(a, vars)
		}
		return builtins[n.name].apply(args)
	case *binaryNode:
		l, r := mapEval(n.left, vars), mapEval(n.right, vars)
		switch n.op {
		case '+':
			return l + r
		case '-':
			return l - r
		case '*':
			return l * r
		case '/':
			if r == 0 {
				return math.NaN()
			}
			return l / r
		case '^':
			return math.Pow(l, r)
		}
	}
	return math.NaN()
}

// mapVars collects the variable names under n by walking the tree.
func mapVars(n Node, set map[string]bool) {
	switch n := n.(type) {
	case *varNode:
		set[n.name] = true
	case *negNode:
		mapVars(n.inner, set)
	case *callNode:
		for _, a := range n.args {
			mapVars(a, set)
		}
	case *binaryNode:
		mapVars(n.left, set)
		mapVars(n.right, set)
	}
}

// mapEvalRows is the map-based EvalRows: one map write per variable per
// row, with null propagation from any NaN input.
func mapEvalRows(e *Expr, cols map[string][]float64, n int) []float64 {
	if len(cols) == 0 {
		return []float64{mapEval(e.root, nil)}
	}
	out := make([]float64, n)
	vars := make(map[string]float64, len(cols))
	for i := range out {
		null := false
		for name, col := range cols {
			if math.IsNaN(col[i]) {
				null = true
				break
			}
			vars[name] = col[i]
		}
		if null {
			out[i] = math.NaN()
			continue
		}
		out[i] = mapEval(e.root, vars)
	}
	return out
}

// fuzzValues are the inputs the evaluator's edge cases turn on: NaN (null),
// ±0, ±Inf, zero divisors, subnormals, values that overflow or underflow
// under ^ and exp, and the domain edges of log, log1p and sqrt.
var fuzzValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 2, -2, 0.5, -0.5, 3, 10, 2024, 0.1, -3.7,
	math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64, 0x1p-1022, math.MaxFloat64, -math.MaxFloat64,
	1e15, 1e300, -1e-300, 710, -745, 0.999999, -0.999999, 1e-16,
}

// fuzzReader turns fuzz bytes into evaluator inputs: a byte below 0xf0
// picks one of fuzzValues, a higher one reads the next eight bytes as raw
// float bits. With the bytes used up it cycles through fuzzValues.
type fuzzReader struct {
	data []byte
	k    int
}

func (r *fuzzReader) next() float64 {
	r.k++
	if len(r.data) == 0 {
		return fuzzValues[r.k%len(fuzzValues)]
	}
	b := r.data[0]
	r.data = r.data[1:]
	if b >= 0xf0 && len(r.data) >= 8 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(r.data))
		r.data = r.data[8:]
		return v
	}
	return fuzzValues[int(b)%len(fuzzValues)]
}

// FuzzEvalRows holds EvalRows and Eval to the map-based tree walk they
// replaced, bit for bit, on every source that compiles. Seeds cover FuzzCompile's
// sources, its testdata corpus, the simulated function generator's formula
// shapes, ^, and every builtin.
func FuzzEvalRows(f *testing.F) {
	sources := append([]string(nil), fuzzSources...)
	sources = append(sources,
		"log1p(Duration)", "2024 - `Age of car`", "Age * Income", "Age / Income",
		"(Glucose + BMI) / (Insulin + Age + 1)", "0.50 * Age + 0.30 * BMI + 0.20 * Glucose",
		"a ^ b", "-a ^ -b", "(a - b) ^ 0.5", "a / (b - b)", "-(a * 0)", "-a - -b",
		"min(a, b, c)", "max(a, -b, 1)", "clip(a, b, c)", "pow(a, b)", "abs(a) + sqrt(b)",
		"log(a) - log1p(b)", "exp(a) * round(b)", "floor(a) / ceil(b)",
		"min(max(a, b), clip(c, a, b)) + pow(min(a, 1), max(b, 2))",
	)
	corpus, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzCompile", "*"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range corpus {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if arg, ok := strings.CutPrefix(line, "string("); ok {
				src, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
				if err != nil {
					f.Fatalf("%s: %v", path, err)
				}
				sources = append(sources, src)
			}
		}
	}
	for i, src := range sources {
		data := make([]byte, 3*len(fuzzValues))
		for j := range data {
			data[j] = byte(j*7 + i)
		}
		f.Add(src, data)
	}
	f.Fuzz(func(t *testing.T, src string, data []byte) {
		e, err := Compile(src)
		if err != nil {
			return
		}
		set := make(map[string]bool)
		mapVars(e.root, set)
		vars := make([]string, 0, len(set))
		for name := range set {
			vars = append(vars, name)
		}
		sort.Strings(vars)
		if got := e.Vars(); !slices.Equal(got, vars) {
			t.Fatalf("Compile(%q).Vars() = %q, tree holds %q", src, got, vars)
		}
		r := &fuzzReader{data: data}
		rows := min(64, 1+len(data)/(1+len(vars)))
		cols := make(map[string][]float64, len(vars))
		for _, name := range vars {
			cols[name] = make([]float64, rows)
		}
		for i := 0; i < rows; i++ {
			for _, name := range vars {
				cols[name][i] = r.next()
			}
		}
		got, err := e.EvalRows(cols)
		if err != nil {
			t.Fatalf("EvalRows(%q): %v", src, err)
		}
		want := mapEvalRows(e, cols, rows)
		if len(got) != len(want) {
			t.Fatalf("EvalRows(%q) gives %d rows, the map walk %d", src, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("EvalRows(%q) row %d = %v (%#x), the map walk gives %v (%#x)",
					src, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
		// Eval has no null short-circuit: a NaN input reaches the tree.
		// Leave the last variable unbound to check it reads as NaN.
		for i := 0; i < rows; i++ {
			binding := make(map[string]float64, len(vars))
			for j, name := range vars {
				if j < len(vars)-1 || i%2 == 0 {
					binding[name] = cols[name][i]
				}
			}
			g, w := e.Eval(binding), mapEval(e.root, binding)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("Eval(%q, %v) = %v, the map walk gives %v", src, binding, g, w)
			}
		}
	})
}
