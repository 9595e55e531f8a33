package partree

import (
	"partree/internal/tune"
)

// Profile is a host tuning profile: the measured machine characteristics
// and the derived runtime knobs (the adaptive grain controller's
// chunk-cost target, boolmat's cache-tile budget and the kernels'
// serial-cutover thresholds) that the runtime consults instead of
// built-in constants. Obtain one from DefaultProfile, CalibrateProfile or
// LoadProfile and install it process-wide with SetActiveProfile. A
// Profile is immutable once created.
type Profile struct {
	p *tune.Profile
}

// DefaultProfile returns the built-in static defaults — the values the
// library shipped with before host calibration existed. A process that
// never installs anything else behaves exactly as those constants dictate
// (in particular, every serial cutover is disabled).
func DefaultProfile() *Profile {
	return &Profile{p: tune.Defaults()}
}

// CalibrateProfile micro-benchmarks the running host and derives a tuned
// profile: a short deterministic sweep measuring per-element loop cost,
// word-OR throughput, and the resident pool's dispatch cost, from which
// the grain target and serial cutoffs are derived with conservative
// clamps, and the boolmat tile budget is swept directly. It takes well under a second and is safe to run concurrently
// with live traffic (it builds its own machines and touches no globals).
func CalibrateProfile() *Profile {
	return &Profile{p: tune.Calibrate(tune.Config{})}
}

// LoadProfile reads a profile previously written with Save. It returns an
// error — and no profile — if the file is unreadable, malformed, from a
// different schema version, or contains out-of-bounds values; callers
// should fall back to DefaultProfile and say so.
func LoadProfile(path string) (*Profile, error) {
	p, err := tune.Load(path)
	if err != nil {
		return nil, err
	}
	return &Profile{p: p}, nil
}

// Save writes the profile as versioned JSON, round-trippable with
// LoadProfile to identical tuned values and an identical Hash.
func (p *Profile) Save(path string) error { return p.p.Save(path) }

// Hash returns a short content digest identifying the profile: schema
// version, host shape, and every measured and tuned value (provenance
// labels excluded, so save/load preserves it).
func (p *Profile) Hash() string { return p.p.Hash() }

// Source reports the profile's provenance: "defaults", "calibrated", or
// whatever the loaded file recorded.
func (p *Profile) Source() string { return p.p.Source }

// Stale reports whether the profile was calibrated on a visibly
// different machine shape (CPU count, OS, architecture) than the running
// process. Stale profiles are still valid — just possibly no longer
// optimal.
func (p *Profile) Stale() bool { return p.p.IsStale() }

// SetActiveProfile installs p process-wide: every kernel, façade call and
// serving-path component reads its tuning from the active profile from
// then on. nil reverts to the built-in defaults. Safe to call under live
// traffic — in-flight statements finish with the values they already
// read, subsequent ones see the new profile.
func SetActiveProfile(p *Profile) {
	if p == nil {
		tune.SetActive(nil)
		return
	}
	tune.SetActive(p.p)
}

// ActiveProfileHash returns the Hash of the currently installed profile
// (the built-in defaults if none was installed) — the identity /statsz
// reports.
func ActiveProfileHash() string { return tune.Active().Hash() }
