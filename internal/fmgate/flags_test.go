package fmgate

import (
	"flag"
	"io"
	"reflect"
	"testing"
	"time"
)

// parseFlags runs argv through a fresh flag set with the shared flags
// registered, then Pool's cross-flag checks.
func parseFlags(t *testing.T, argv []string, seed int64, recording, replaying bool) (*PoolSpec, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var f Flags
	f.Register(fs)
	if err := fs.Parse(argv); err != nil {
		t.Fatalf("parsing %q: %v", argv, err)
	}
	return f.Pool(seed, recording, replaying)
}

// TestFlags pins the shared FM flag surface: every rejected combination
// errors, no pool flag means no pool, and a valid argv maps field by field
// onto the PoolSpec.
func TestFlags(t *testing.T) {
	rejected := []struct {
		name                 string
		argv                 []string
		recording, replaying bool
	}{
		{"record with replay", nil, true, true},
		{"cache dir with replay", []string{"-fm-cache-dir", "c"}, false, true},
		{"hedge without backends", []string{"-fm-hedge", "1ms"}, false, false},
		{"deadline without backends", []string{"-fm-deadline", "1s"}, false, false},
		{"breaker without backends", []string{"-fm-breaker", "3"}, false, false},
		{"retries without backends", []string{"-fm-retries", "2"}, false, false},
		{"faults without backends", []string{"-fm-faults", "rate=0.1"}, false, false},
		{"malformed while recording", []string{"-fm-backends", "2", "-fm-faults", "malformed=0.1"}, true, false},
		{"bad breaker", []string{"-fm-backends", "2", "-fm-breaker", "0"}, false, false},
		{"bad breaker cooldown", []string{"-fm-backends", "2", "-fm-breaker", "3:-1s"}, false, false},
		{"bad fault key", []string{"-fm-backends", "2", "-fm-faults", "bogus=1"}, false, false},
		{"hedge on one backend", []string{"-fm-backends", "1", "-fm-hedge", "1ms"}, false, false},
		{"outage on a missing backend", []string{"-fm-backends", "1", "-fm-faults", "outage=b9:1-5"}, false, false},
		{"outage on b0", []string{"-fm-backends", "3", "-fm-faults", "outage=b0:1-5"}, false, false},
		{"rate above 1", []string{"-fm-backends", "2", "-fm-faults", "rate=1.5"}, false, false},
		{"negative rate", []string{"-fm-backends", "2", "-fm-faults", "rate=-1"}, false, false},
		{"NaN rate", []string{"-fm-backends", "2", "-fm-faults", "rate=NaN"}, false, false},
		{"hang above 1", []string{"-fm-backends", "2", "-fm-faults", "hang=2"}, false, false},
		{"negative jitter", []string{"-fm-backends", "2", "-fm-faults", "jitter=-4ms"}, false, false},
		{"negative retryafter", []string{"-fm-backends", "2", "-fm-faults", "retryafter=-1s"}, false, false},
	}
	for _, tc := range rejected {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := parseFlags(t, tc.argv, 7, tc.recording, tc.replaying)
			if err == nil {
				t.Fatalf("argv %q (recording=%v, replaying=%v) accepted as %+v", tc.argv, tc.recording, tc.replaying, spec)
			}
		})
	}

	// No pool flag: no pool, whether recording, replaying or live.
	for _, mode := range [][2]bool{{false, false}, {true, false}, {false, true}} {
		if spec, err := parseFlags(t, nil, 7, mode[0], mode[1]); err != nil || spec != nil {
			t.Fatalf("no pool flags (recording=%v, replaying=%v): spec %+v, err %v", mode[0], mode[1], spec, err)
		}
	}
	// A cache dir alone is fine while recording.
	if _, err := parseFlags(t, []string{"-fm-cache-dir", "c"}, 7, true, false); err != nil {
		t.Fatalf("-fm-cache-dir while recording: %v", err)
	}

	argv := []string{
		"-fm-backends", "3", "-fm-hedge", "2ms", "-fm-deadline", "2s", "-fm-breaker", "3:50ms",
		"-fm-retries", "8", "-fm-faults", "rate=0.1,ratelimit=0.03,hang=0.01,malformed=0.02,jitter=4ms,retryafter=10ms,outage=b2:5-25",
	}
	got, err := parseFlags(t, argv, 2024, false, true)
	if err != nil {
		t.Fatal(err)
	}
	want := &PoolSpec{
		Backends: 3,
		Hedge:    2 * time.Millisecond,
		Deadline: 2 * time.Second,
		Breaker:  BreakerConfig{Threshold: 3, Cooldown: 50 * time.Millisecond},
		Retries:  8,
		Faults: FaultSpec{
			Rate:       0.1,
			RateLimit:  0.03,
			Hang:       0.01,
			Malformed:  0.02,
			Jitter:     4 * time.Millisecond,
			RetryAfter: 10 * time.Millisecond,
			Outage:     "b2:5-25",
		},
		Seed: 2024,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PoolSpec:\n got %+v\nwant %+v", *got, *want)
	}
}

// faultSpecSeeds are the fault models the CI gates run with, plus values
// the parser must reject.
var faultSpecSeeds = []string{
	"rate=0.1,ratelimit=0.03,jitter=4ms,retryafter=10ms,outage=b2:5-25",
	"rate=0.08,ratelimit=0.03,jitter=3ms,retryafter=5ms,outage=b2:3-10",
	"rate=0.05,ratelimit=0.05,retryafter=10ms,jitter=1ms",
	"rate=0.1,ratelimit=0.03,hang=0.01,malformed=0.02,jitter=4ms,retryafter=10ms,outage=b2:5-25",
	"rate=1.5", "rate=-1", "rate=NaN", "hang=2", "jitter=-4ms", "retryafter=-1s",
	"outage=b1:5-2", "rate", "",
}

func FuzzParseFaultSpec(f *testing.F) {
	for _, s := range faultSpecSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseFaultSpec(s)
		if err != nil {
			return
		}
		for k, p := range map[string]float64{"rate": spec.Rate, "ratelimit": spec.RateLimit, "hang": spec.Hang, "malformed": spec.Malformed} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("%q accepted with %s=%v outside [0,1]", s, k, p)
			}
		}
		if spec.Jitter < 0 || spec.RetryAfter < 0 {
			t.Fatalf("%q accepted with a negative duration: %+v", s, spec)
		}
	})
}

func FuzzParseBreaker(f *testing.F) {
	for _, s := range []string{"3:50ms", "3:10ms", "3", "0", "-1", "3:-1s", "3:0s", "x", ":", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		cfg, err := ParseBreaker(s)
		if err != nil {
			return
		}
		if cfg.Threshold <= 0 {
			t.Fatalf("%q accepted with threshold %d", s, cfg.Threshold)
		}
		if cfg.Cooldown < 0 {
			t.Fatalf("%q accepted with cooldown %s", s, cfg.Cooldown)
		}
	})
}
