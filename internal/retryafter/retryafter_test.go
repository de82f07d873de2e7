package retryafter

import (
	"math"
	"net/http"
	"strconv"
	"testing"
	"time"
)

func TestSecondsRoundsUpWithFloor(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{-time.Second, 1},
		{time.Millisecond, 1},
		{time.Second, 1},
		{1001 * time.Millisecond, 2},
		{2 * time.Second, 2},
		{2500 * time.Millisecond, 3},
		{time.Minute, 60},
		{math.MaxInt64, 9223372036}, // capped: one more second would not parse back
	}
	for _, tc := range cases {
		if got := Seconds(tc.d); got != tc.want {
			t.Errorf("Seconds(%s) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

func TestParseRejectsNonWireValues(t *testing.T) {
	for _, v := range []string{
		"", "0", "-1", "1.5", "soon", "Wed, 21 Oct 2015 07:28:00 GMT",
		// Second counts that do not fit in a time.Duration: multiplying
		// them out would wrap to a negative or tiny duration.
		"9223372037", "18446744074", "99999999999999999999",
	} {
		if d, ok := Parse(v); ok {
			t.Errorf("Parse(%q) = %s, ok — want rejection", v, d)
		}
	}
	if d, ok := Parse("3"); !ok || d != 3*time.Second {
		t.Errorf("Parse(3) = %s, %v; want 3s, true", d, ok)
	}
	if d, ok := Parse("9223372036"); !ok || d != 9223372036*time.Second {
		t.Errorf("Parse(9223372036) = %s, %v; want the largest whole-second duration", d, ok)
	}
}

// FuzzParse pins Parse's contract on arbitrary input: an accepted value is a
// positive whole-second duration equal to the decimal count it was read
// from, and it survives emission and parsing unchanged. Read as a duration
// in nanoseconds, any positive integer also emits a value that parses back,
// never shorter than the duration unless it exceeds the largest whole-second
// duration.
func FuzzParse(f *testing.F) {
	for _, v := range []string{"1", "3", "60", "0", "-1", "1.5", "soon", "9223372036", "9223372037", "18446744074", "9223372036854775807"} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		d, ok := Parse(v)
		if ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || d <= 0 || d%time.Second != 0 || int64(d/time.Second) != n {
				t.Fatalf("Parse(%q) = %d ns, ok: not the %q-second count", v, int64(d), v)
			}
			if back, ok := Parse(strconv.Itoa(Seconds(d))); !ok || back != d {
				t.Fatalf("Parse(%q) = %s does not round-trip: %s, %v", v, d, back, ok)
			}
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 {
			return
		}
		d = time.Duration(n)
		back, ok := Parse(strconv.Itoa(Seconds(d)))
		if !ok {
			t.Fatalf("Seconds(%d ns) = %d does not parse back", n, Seconds(d))
		}
		if largest := math.MaxInt64 / time.Second * time.Second; back < d && back != largest {
			t.Fatalf("round-trip of %d ns came back shorter: %s", n, back)
		}
	})
}

// TestRoundTrip pins the anti-drift contract: a duration pushed through
// emission and parsing comes back ceil'd to whole seconds — the only loss
// the wire format allows — and never earlier than the original hint.
func TestRoundTrip(t *testing.T) {
	for _, d := range []time.Duration{
		time.Millisecond, time.Second, 1500 * time.Millisecond, 7 * time.Second, 90 * time.Second,
	} {
		h := http.Header{}
		Set(h, d)
		got, ok := Parse(h.Get(HeaderName))
		if !ok {
			t.Fatalf("Set(%s) emitted unparseable %q", d, h.Get(HeaderName))
		}
		if got < d {
			t.Errorf("round-trip of %s came back shorter: %s (clients would retry early)", d, got)
		}
		if got >= d+time.Second {
			t.Errorf("round-trip of %s inflated past the ceil: %s", d, got)
		}
	}
}

func TestFromResponse(t *testing.T) {
	if _, ok := FromResponse(nil); ok {
		t.Error("FromResponse(nil) reported a hint")
	}
	resp := &http.Response{Header: http.Header{}}
	if _, ok := FromResponse(resp); ok {
		t.Error("FromResponse without a header reported a hint")
	}
	resp.Header.Set(HeaderName, "5")
	if d, ok := FromResponse(resp); !ok || d != 5*time.Second {
		t.Errorf("FromResponse = %s, %v; want 5s, true", d, ok)
	}
}
