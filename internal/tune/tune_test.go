package tune

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"partree/internal/engine"
)

// TestDefaultsValidate pins the built-in profile inside its own hard
// bounds — Defaults drifting out of Validate's range would make the
// fallback path reject itself.
func TestDefaultsValidate(t *testing.T) {
	if err := Defaults().Validate(); err != nil {
		t.Fatalf("Defaults().Validate() = %v", err)
	}
}

// TestDefaultsMatchPreTuningConstants pins the default profile to the
// exact static values the tree shipped with before calibration existed:
// a process that never installs a profile must behave identically to the
// old constants, cutovers disabled.
func TestDefaultsMatchPreTuningConstants(t *testing.T) {
	d := Defaults().Tuned
	want := Tuned{
		GrainTargetNs: 100_000, BoolmatKTileBytes: 1 << 18,
		BoolmatSerialWords: 0, MongeSerialEntries: 0, LinCFLSerialWords: 0,
	}
	if d != want {
		t.Fatalf("Defaults().Tuned = %+v, want the pre-tuning constants %+v", d, want)
	}
	if d.BoolmatSerialWords != 0 || d.MongeSerialEntries != 0 || d.LinCFLSerialWords != 0 {
		t.Fatalf("default profile must keep every serial cutover disabled, got %+v", d)
	}
}

// TestProfileRoundTrip writes a calibrated profile and loads it back:
// identical tuned values, identical hash.
func TestProfileRoundTrip(t *testing.T) {
	p := Calibrate(Config{Quick: true})
	if err := p.Validate(); err != nil {
		t.Fatalf("calibrated profile fails validation: %v", err)
	}
	path := filepath.Join(t.TempDir(), "partree-tune.json")
	if err := p.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Tuned != p.Tuned {
		t.Fatalf("tuned values changed across round trip:\nwrote %+v\nread  %+v", p.Tuned, got.Tuned)
	}
	if got.Measured != p.Measured {
		t.Fatalf("measured values changed across round trip:\nwrote %+v\nread  %+v", p.Measured, got.Measured)
	}
	if got.Hash() != p.Hash() {
		t.Fatalf("hash changed across round trip: wrote %s, read %s", p.Hash(), got.Hash())
	}
}

// TestHashIgnoresProvenance: Source and CreatedAt are labels, not
// identity — two profiles with the same numbers share a hash.
func TestHashIgnoresProvenance(t *testing.T) {
	a := Defaults()
	b := Defaults()
	b.Source = "loaded"
	b.CreatedAt = "2026-01-01T00:00:00Z"
	if a.Hash() != b.Hash() {
		t.Fatalf("hash depends on provenance: %s vs %s", a.Hash(), b.Hash())
	}
	c := Defaults()
	c.Tuned.GrainTargetNs++
	if a.Hash() == c.Hash() {
		t.Fatal("hash ignores a tuned-value change")
	}
}

// TestLoadRejectsCorrupt covers the fallback ladder: missing file,
// malformed JSON, wrong schema version, out-of-bounds value. Each must
// return an error (the caller then falls back to Defaults).
func TestLoadRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	if _, err := Load(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("Load(missing file) succeeded")
	}
	if _, err := Load(write("garbage.json", "{not json")); err == nil {
		t.Fatal("Load(malformed JSON) succeeded")
	}

	good := Defaults()
	path := filepath.Join(dir, "good.json")
	if err := good.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)

	versioned := strings.Replace(string(raw), `"version": 1`, `"version": 99`, 1)
	if !strings.Contains(versioned, `"version": 99`) {
		t.Fatal("test setup: version field not found in saved profile")
	}
	if _, err := Load(write("version.json", versioned)); !errors.Is(err, ErrVersion) {
		t.Fatalf("Load(wrong version) = %v, want ErrVersion", err)
	}

	bad := strings.Replace(string(raw), `"grain_target_ns": 100000`, `"grain_target_ns": -5`, 1)
	if !strings.Contains(bad, `"grain_target_ns": -5`) {
		t.Fatal("test setup: grain_target_ns field not found in saved profile")
	}
	if _, err := Load(write("bounds.json", bad)); err == nil {
		t.Fatal("Load(out-of-bounds value) succeeded")
	}
}

// TestLoadIgnoresRemovedFields: a version-1 file written when the profile
// still carried per-family grains, pool and batch sizing and a steal
// probe loads, and keeps the five values the profile still has.
func TestLoadIgnoresRemovedFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "partree-tune.json")
	old := `{
  "version": 1,
  "source": "calibrated",
  "host": {"goos": "linux", "goarch": "amd64", "num_cpu": 2, "go_version": "go1.22.0"},
  "measured": {"loop_ns_per_elem": 0.3, "word_ns_per_op": 0.1, "row_ns_per_row": 2.5,
    "dispatch_ns_per_stmt": 3000, "steal_ns_per_steal": 850},
  "tuned": {
    "grain_monge": 4096, "grain_dp": 2048, "grain_hufpar": 1024, "grain_lincfl": 128,
    "grain_batch": 1, "grain_target_ns": 75000, "boolmat_ktile_bytes": 524288,
    "boolmat_serial_words": 4096, "monge_serial_entries": 2048, "lincfl_serial_words": 8192,
    "smawk_row_block": 256, "machine_pool_cap": 16, "max_batch": 64, "arena_shards": 2
  }
}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := Load(path)
	if err != nil {
		t.Fatalf("Load(profile with removed fields) = %v", err)
	}
	want := Tuned{
		GrainTargetNs: 75_000, BoolmatKTileBytes: 1 << 19,
		BoolmatSerialWords: 4096, MongeSerialEntries: 2048, LinCFLSerialWords: 8192,
	}
	if p.Tuned != want {
		t.Fatalf("loaded tuned values %+v, want %+v", p.Tuned, want)
	}
	if p.Measured.DispatchNs != 3000 || p.Measured.RowNs != 2.5 {
		t.Fatalf("loaded measured values %+v", p.Measured)
	}
}

// TestStaleDetection: a profile from a different host shape flags stale;
// a freshly calibrated one does not.
func TestStaleDetection(t *testing.T) {
	p := Defaults()
	if p.IsStale() {
		t.Fatal("profile for the current host reports stale")
	}
	p.Host.NumCPU++
	if !p.IsStale() {
		t.Fatal("profile from a different CPU count not flagged stale")
	}
}

// TestActiveLifecycle: Active never returns nil, SetActive installs and
// nil restores defaults.
func TestActiveLifecycle(t *testing.T) {
	defer SetActive(nil)
	if Active() == nil {
		t.Fatal("Active() returned nil before any SetActive")
	}
	if Active().Source != "defaults" {
		t.Fatalf("initial active profile source = %q, want defaults", Active().Source)
	}
	p := Defaults()
	p.Source = "test"
	SetActive(p)
	if Active() != p {
		t.Fatal("SetActive did not install the profile")
	}
	SetActive(nil)
	if Active().Source != "defaults" {
		t.Fatal("SetActive(nil) did not restore defaults")
	}
}

// TestCalibrateBounds: every derived value respects both the derivation
// clamps' intent and the hard validity bounds, whatever this host
// measures. Run twice to shake out obvious nondeterminism in the
// derivation plumbing (the measurements themselves may differ).
func TestCalibrateBounds(t *testing.T) {
	for i := 0; i < 2; i++ {
		p := Calibrate(Config{Quick: true})
		if err := p.Validate(); err != nil {
			t.Fatalf("run %d: calibrated profile invalid: %v", i, err)
		}
		tn := p.Tuned
		if g := engine.GrainBatch(); g != 1 {
			t.Fatalf("run %d: GrainBatch = %d, must stay 1", i, g)
		}
		if tn.BoolmatSerialWords == 0 || tn.MongeSerialEntries == 0 || tn.LinCFLSerialWords == 0 {
			t.Fatalf("run %d: calibration left a serial cutover disabled: %+v", i, tn)
		}
		if p.Source != "calibrated" {
			t.Fatalf("run %d: source = %q", i, p.Source)
		}
		if p.IsStale() {
			t.Fatalf("run %d: freshly calibrated profile reports stale", i)
		}
		for _, m := range []struct {
			name string
			v    float64
		}{
			{"LoopNs", p.Measured.LoopNs}, {"ScanNs", p.Measured.ScanNs},
			{"WordNs", p.Measured.WordNs}, {"RowNs", p.Measured.RowNs},
			{"InlineNs", p.Measured.InlineNs},
		} {
			if m.v <= 0 {
				t.Fatalf("run %d: measured %s = %v, want > 0", i, m.name, m.v)
			}
		}
	}
}
