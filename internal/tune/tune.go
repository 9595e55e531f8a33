// Package tune holds the host-calibrated tuning profile: the five
// runtime knobs a calibration measurably moves — the adaptive grain
// controller's chunk-cost target, boolmat's cache-tile budget, and the
// serial cutovers of the boolmat, monge and lincfl kernels.
//
// A Profile is either the built-in Defaults (which reproduce the
// pre-calibration static constants bit for bit — every cutover disabled),
// the output of Calibrate (a short deterministic micro-benchmark sweep of
// the running host), or a JSON file written by a previous calibration and
// reloaded with Load. One profile is installed process-wide with
// SetActive; kernels read tune.Active().Tuned directly, so the whole
// stack — kernels, façade, serving path — follows the active profile
// without threading a parameter through every call.
//
// Profiles are versioned and hashed: Hash covers the version, host shape
// and every measured/tuned value (but not the creation time or source
// label), so two runs that derived the same numbers agree on identity and
// /statsz can report exactly which tuning a serving process runs under.
package tune

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
)

// CurrentVersion is the profile schema version. Load rejects files whose
// version differs: tuned fields mean nothing across schema changes, and a
// silent partial decode would install garbage thresholds.
const CurrentVersion = 1

// Host records the machine shape a profile was calibrated on. A profile
// loaded on a different shape still validates — the values are safe, just
// possibly stale — and IsStale flags the mismatch for /statsz.
type Host struct {
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
}

// Measured holds the raw micro-benchmark results, kept in the profile so
// a human (or a later version of the deriver) can audit where a threshold
// came from. LoopNs and RowNs derive no tuned value; they are the
// per-element costs a kernel's wall-clock ceiling is computed from.
type Measured struct {
	// LoopNs is the cost of one cheap float-arithmetic loop iteration —
	// the body shape of the dense DP kernels (obst, shannonfano).
	LoopNs float64 `json:"loop_ns_per_elem"`
	// ScanNs is the per-scanned-element cost of a bracketed argmin scan —
	// the body shape of monge's interpolation statements.
	ScanNs float64 `json:"scan_ns_per_elem"`
	// WordNs is the cost of one 64-bit word OR — the inner unit of the
	// boolmat kernels.
	WordNs float64 `json:"word_ns_per_op"`
	// RowNs is the cost of OR-ing one packed 32-word matrix row — the
	// per-index unit of boolmat.MulPar as lincfl drives it.
	RowNs float64 `json:"row_ns_per_row"`
	// DispatchNs is the wall cost of one parallel statement on the
	// resident worker pool (partition + wake + barrier), beyond the
	// body's own work. This is the constant the serial cutovers amortize.
	DispatchNs float64 `json:"dispatch_ns_per_stmt"`
	// InlineNs is the wall cost of one inline (single-chunk) statement —
	// the For fast path's bookkeeping floor.
	InlineNs float64 `json:"inline_ns_per_stmt"`
}

// Tuned is the set of runtime knobs calibration moves. Load ignores
// unknown fields, so a version-1 file that still carries fields this
// struct no longer has loads with these five values.
type Tuned struct {
	// GrainTargetNs is the adaptive grain controller's per-chunk work
	// target (pram.WithGrainTarget): chunks sized to carry about this
	// many nanoseconds of measured body work.
	GrainTargetNs int `json:"grain_target_ns"`

	// BoolmatKTileBytes is the blocked Boolean multiply's cache budget:
	// bytes of B rows kept resident per k-tile (boolmat.mulKTile).
	BoolmatKTileBytes int `json:"boolmat_ktile_bytes"`

	// BoolmatSerialWords: boolmat.MulPar runs serially (blocked Mul, one
	// counted step) when the product's dense-worst-case word-OR estimate
	// is at or below this. 0 disables the cutover.
	BoolmatSerialWords int `json:"boolmat_serial_words"`

	// MongeSerialEntries: monge's recursive cut engine drops to the
	// serial strided recursion when a level's p·r entry count is at or
	// below this. 0 disables the cutover.
	MongeSerialEntries int `json:"monge_serial_entries"`

	// LinCFLSerialWords: lincfl's separator recursion multiplies block
	// matrices with the serial blocked kernel (skipping the PRAM
	// statement and its phase bookkeeping) when the product estimate is
	// at or below this. 0 disables the cutover.
	LinCFLSerialWords int `json:"lincfl_serial_words"`
}

// Profile is a complete tuning profile: identity, provenance, raw
// measurements and derived knobs. Treat profiles as immutable once
// installed with SetActive — kernels read them lock-free.
type Profile struct {
	Version   int      `json:"version"`
	CreatedAt string   `json:"created_at,omitempty"`
	Source    string   `json:"source"`
	Host      Host     `json:"host"`
	Measured  Measured `json:"measured"`
	Tuned     Tuned    `json:"tuned"`
}

// currentHost describes the running process.
func currentHost() Host {
	return Host{
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
}

// Defaults returns the built-in profile: the exact static constants the
// tree shipped with before calibration existed. Every serial cutover is
// disabled (0), so a process running Defaults behaves identically to the
// pre-tuning runtime — that equivalence is what the E15 experiment's
// baseline arm measures.
func Defaults() *Profile {
	return &Profile{
		Version: CurrentVersion,
		Source:  "defaults",
		Host:    currentHost(),
		Tuned: Tuned{
			GrainTargetNs:      100_000,
			BoolmatKTileBytes:  1 << 18,
			BoolmatSerialWords: 0,
			MongeSerialEntries: 0,
			LinCFLSerialWords:  0,
		},
	}
}

// Hard validity bounds. Wider than any derivation clamp: Validate rejects
// profiles that no sane calibration could have produced (hand-edited or
// corrupt files), not merely unusual hosts.
var bounds = []struct {
	name     string
	get      func(*Tuned) int
	min, max int
}{
	{"grain_target_ns", func(t *Tuned) int { return t.GrainTargetNs }, 1_000, 10_000_000},
	{"boolmat_ktile_bytes", func(t *Tuned) int { return t.BoolmatKTileBytes }, 1 << 14, 1 << 24},
	{"boolmat_serial_words", func(t *Tuned) int { return t.BoolmatSerialWords }, 0, 1 << 24},
	{"monge_serial_entries", func(t *Tuned) int { return t.MongeSerialEntries }, 0, 1 << 24},
	{"lincfl_serial_words", func(t *Tuned) int { return t.LinCFLSerialWords }, 0, 1 << 24},
}

// ErrVersion reports a schema mismatch; errors.Is-able so callers can
// distinguish "re-run -tune" from "file is garbage".
var ErrVersion = errors.New("tune: profile schema version mismatch")

// Validate checks that the profile's schema version matches and every
// tuned value sits inside its hard validity bounds.
func (p *Profile) Validate() error {
	if p.Version != CurrentVersion {
		return fmt.Errorf("%w: file has version %d, this binary speaks %d",
			ErrVersion, p.Version, CurrentVersion)
	}
	for _, b := range bounds {
		if v := b.get(&p.Tuned); v < b.min || v > b.max {
			return fmt.Errorf("tune: %s = %d outside valid range [%d, %d]",
				b.name, v, b.min, b.max)
		}
	}
	return nil
}

// IsStale reports whether the profile was calibrated on a visibly
// different machine shape than the running process (CPU count, OS or
// architecture). Stale profiles remain usable — every value passed
// Validate — but the numbers may no longer be optimal; the serving path
// surfaces the flag so operators know to re-run -tune.
func (p *Profile) IsStale() bool {
	h := currentHost()
	return p.Host.NumCPU != h.NumCPU || p.Host.GOARCH != h.GOARCH || p.Host.GOOS != h.GOOS
}

// hashBody is the identity-bearing subset of a profile: provenance labels
// (Source, CreatedAt) are excluded so re-deriving identical numbers — or
// saving and reloading — preserves the hash.
type hashBody struct {
	Version  int      `json:"version"`
	Host     Host     `json:"host"`
	Measured Measured `json:"measured"`
	Tuned    Tuned    `json:"tuned"`
}

// Hash returns a short hex digest identifying the profile's content.
func (p *Profile) Hash() string {
	raw, err := json.Marshal(hashBody{p.Version, p.Host, p.Measured, p.Tuned})
	if err != nil {
		// hashBody contains only numbers and strings; Marshal cannot fail.
		panic("tune: hash marshal: " + err.Error())
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])[:12]
}

// Save writes the profile as indented JSON. The file round-trips through
// Load to identical tuned values and an identical Hash.
func (p *Profile) Save(path string) error {
	raw, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return fmt.Errorf("tune: encode profile: %w", err)
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// Load reads and validates a profile file. Any failure — unreadable file,
// malformed JSON, version mismatch, out-of-bounds value — returns a nil
// profile and an error; callers fall back to Defaults (and should say so
// in their logs rather than silently running detuned).
func Load(path string) (*Profile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tune: read profile: %w", err)
	}
	p := new(Profile)
	if err := json.Unmarshal(raw, p); err != nil {
		return nil, fmt.Errorf("tune: parse profile %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("tune: invalid profile %s: %w", path, err)
	}
	return p, nil
}

// The process-wide active profile. Nil means Defaults; Active never
// returns nil. The pointer is atomic so kernels read tuned values
// lock-free on their hot paths and calibration can swap profiles under
// live traffic.
var active atomic.Pointer[Profile]

// fallback is the shared Defaults instance Active hands out before any
// SetActive. Immutable by convention (as all installed profiles are).
var fallback = Defaults()

// Active returns the installed profile, or the built-in defaults if none
// has been installed. The result must not be mutated.
func Active() *Profile {
	if p := active.Load(); p != nil {
		return p
	}
	return fallback
}

// SetActive installs p process-wide; nil reverts to the built-in
// defaults. The caller must not mutate p afterwards. Safe to call
// concurrently with running kernels: statements already in flight finish
// under the values they read, subsequent ones see the new profile.
func SetActive(p *Profile) {
	active.Store(p)
}
