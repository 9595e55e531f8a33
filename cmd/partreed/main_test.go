package main

import (
	"path/filepath"
	"testing"

	"partree"
)

// TestTuneOnlyWritesProfile: -tune-only calibrates, installs and writes
// the profile, then exits 0; the file loads back as the installed
// profile.
func TestTuneOnlyWritesProfile(t *testing.T) {
	defer partree.SetActiveProfile(nil)
	path := filepath.Join(t.TempDir(), "partree-tune.json")
	if code := run([]string{"-tune-only", "-tune-profile", path}); code != 0 {
		t.Fatalf("partreed -tune-only exited %d, want 0", code)
	}
	prof, err := partree.LoadProfile(path)
	if err != nil {
		t.Fatalf("LoadProfile(written profile): %v", err)
	}
	if got, want := prof.Hash(), partree.ActiveProfileHash(); got != want {
		t.Errorf("written profile hash %s, installed profile hash %s", got, want)
	}
	if prof.Source() != "calibrated" {
		t.Errorf("written profile source = %q, want calibrated", prof.Source())
	}
}

// TestTuneOnlyUnwritableProfile: -tune-only exits 1 when the profile
// cannot be written.
func TestTuneOnlyUnwritableProfile(t *testing.T) {
	defer partree.SetActiveProfile(nil)
	path := filepath.Join(t.TempDir(), "missing", "partree-tune.json")
	if code := run([]string{"-tune-only", "-tune-profile", path}); code != 1 {
		t.Fatalf("partreed -tune-only into a missing directory exited %d, want 1", code)
	}
}
