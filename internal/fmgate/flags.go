package fmgate

import (
	"errors"
	"flag"
	"time"
)

// Flags are the FM traffic flags cmd/smartfeat, cmd/experiments and
// cmd/smartfeatd share. Each command declares its own -fm-record and
// -fm-replay (their arguments differ) and passes their state to Pool, which
// makes every cross-flag check.
type Flags struct {
	CacheDir string
	Backends int
	Hedge    time.Duration
	Deadline time.Duration
	Breaker  string
	Retries  int
	Faults   string
}

// Register declares the shared flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.CacheDir, "fm-cache-dir", "", "cross-process completion-cache directory: a content-addressed read-through index over FM shard files (e.g. an -fm-record directory), serving completions already paid for at $0 before calling upstream; rejected with -fm-replay (redundant). cmd/experiments refuses a directory recorded under another config hash, smartfeatd skips it for such jobs, the smartfeat CLI does not check the hash")
	fs.IntVar(&f.Backends, "fm-backends", 0, "route FM traffic through a resilient pool of N replica backends (circuit breakers, least-loaded selection; 0 = no pool)")
	fs.DurationVar(&f.Hedge, "fm-hedge", 0, "hedge FM calls: fire a duplicate on a second backend after this delay, first success wins (0 = off; needs -fm-backends >= 2)")
	fs.DurationVar(&f.Deadline, "fm-deadline", 0, "per-FM-call deadline budget; a stuck backend fails the call transiently (0 = none)")
	fs.StringVar(&f.Breaker, "fm-breaker", "", "per-backend circuit breaker as THRESHOLD[:COOLDOWN], e.g. '3' or '3:50ms' (consecutive transport failures to open; delay before the half-open probe)")
	fs.IntVar(&f.Retries, "fm-retries", 0, "gateway retry budget for transient FM errors (0 = fail fast, or 4 when -fm-faults is set)")
	fs.StringVar(&f.Faults, "fm-faults", "", "per-backend injected fault model, e.g. 'rate=0.1,ratelimit=0.03,hang=0.01,malformed=0.02,jitter=4ms,retryafter=10ms,outage=b2:5-25' (needs -fm-backends; probabilities in [0,1], outage names one of b1..bN; transport faults leave replayed results byte-identical)")
}

// Pool checks the flags against each other and against the command's
// record/replay mode, and returns the pool spec with seed offsetting its
// fault sequences — nil without -fm-backends.
func (f *Flags) Pool(seed int64, recording, replaying bool) (*PoolSpec, error) {
	switch {
	case recording && replaying:
		return nil, errors.New("-fm-record and -fm-replay are mutually exclusive (a replayed run makes no upstream calls to record)")
	case replaying && f.CacheDir != "":
		return nil, errors.New("-fm-cache-dir with -fm-replay is redundant — replay already serves every completion at $0; drop one")
	case f.Backends <= 0:
		if f.Hedge != 0 || f.Deadline != 0 || f.Breaker != "" || f.Faults != "" || f.Retries != 0 {
			return nil, errors.New("-fm-hedge/-fm-deadline/-fm-breaker/-fm-faults/-fm-retries need -fm-backends >= 1")
		}
		return nil, nil
	case f.Hedge != 0 && f.Backends < 2:
		return nil, errors.New("-fm-hedge needs -fm-backends >= 2 (a one-backend pool has no second backend to hedge on)")
	}
	spec := &PoolSpec{Backends: f.Backends, Hedge: f.Hedge, Deadline: f.Deadline, Retries: f.Retries, Seed: seed}
	var err error
	if f.Breaker != "" {
		if spec.Breaker, err = ParseBreaker(f.Breaker); err != nil {
			return nil, err
		}
	}
	if f.Faults != "" {
		if spec.Faults, err = ParseFaultSpec(f.Faults); err != nil {
			return nil, err
		}
		if recording && spec.Faults.Malformed > 0 {
			return nil, errors.New("-fm-faults malformed>0 with -fm-record would record corrupted completions; record clean traffic and inject faults on replay")
		}
		if _, _, _, err := spec.outage(); err != nil {
			return nil, err
		}
	}
	return spec, nil
}
