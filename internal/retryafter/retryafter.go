// Package retryafter is the single source of truth for the Retry-After
// back-pressure wire format: whole seconds, rounded up, never zero.
//
// Three layers speak it and must never drift:
//
//   - the serving daemon *emits* it on 429 responses (header + the
//     retry_after JSON hint in the body);
//   - the load simulator (and any other HTTP client of smartfeatd)
//     *parses* it to honor the server-suggested backoff;
//   - the FM gateway maps upstream rate-limit responses onto
//     fmgate.RateLimited hints through the same parser
//     (fmgate.RateLimitedHeader).
//
// Keeping the round-trip in one package means a duration that survives
// emission and parsing can lose at most the sub-second remainder the wire
// format cannot carry — and every layer loses it identically.
package retryafter

import (
	"math"
	"net/http"
	"strconv"
	"time"
)

// HeaderName is the HTTP header carrying the hint.
const HeaderName = "Retry-After"

// maxSeconds is the largest whole-second count a time.Duration can hold
// (about 292 years).
const maxSeconds = int64(math.MaxInt64 / time.Second)

// Seconds converts a backoff duration to the wire format: whole seconds,
// rounded up so the client never retries early, with a floor of 1 — a
// Retry-After of 0 reads as "retry immediately", which defeats the hint.
// Non-positive durations also map to 1 (the emitter asked for *some*
// backoff by reaching for this package at all). The count is capped at
// maxSeconds, so every emitted value parses back.
func Seconds(d time.Duration) int {
	if d <= 0 {
		return 1
	}
	s := int64(d / time.Second)
	if d%time.Second != 0 && s < maxSeconds {
		s++
	}
	return int(s)
}

// Set writes the hint onto an HTTP response header in wire format.
func Set(h http.Header, d time.Duration) {
	h.Set(HeaderName, strconv.Itoa(Seconds(d)))
}

// Parse reads a wire-format value ("3") back into a duration. The bool is
// false for anything that is not a positive integer second count that fits
// in a time.Duration — including the HTTP-date form of Retry-After, which
// this codebase never emits and therefore refuses to guess at.
func Parse(v string) (time.Duration, bool) {
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n <= 0 || n > maxSeconds {
		return 0, false
	}
	return time.Duration(n) * time.Second, true
}

// FromResponse extracts the hint from an HTTP response's headers.
func FromResponse(resp *http.Response) (time.Duration, bool) {
	if resp == nil {
		return 0, false
	}
	return Parse(resp.Header.Get(HeaderName))
}
