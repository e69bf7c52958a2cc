package persist

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// requireFile requires path to hold exactly want and no temp file to sit
// beside it.
func requireFile(t *testing.T, path, want string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil || string(got) != want {
		t.Fatalf("%s holds %q (%v), want %q", path, got, err, want)
	}
	if _, err := os.Lstat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left beside %s (lstat: %v)", path, err)
	}
}

// hookFsync swaps the data-fsync seam for the test's duration.
func hookFsync(t *testing.T, fn func(*os.File) error) {
	t.Helper()
	old := fsyncFile
	fsyncFile = fn
	t.Cleanup(func() { fsyncFile = old })
}

func TestPublishFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")

	if err := PublishFile(path, []byte("one")); err != nil {
		t.Fatal(err)
	}
	requireFile(t, path, "one")
	if err := PublishFile(path, []byte("two, longer")); err != nil {
		t.Fatal(err)
	}
	requireFile(t, path, "two, longer")
	if err := PublishFile(path, []byte("3")); err != nil { // shorter: no stale tail
		t.Fatal(err)
	}
	requireFile(t, path, "3")

	// Create failure: the directory is missing.
	missing := filepath.Join(dir, "no-such-dir", "target")
	if err := PublishFile(missing, []byte("x")); err == nil {
		t.Fatal("publish into a missing directory succeeded")
	}
	if _, err := os.Lstat(filepath.Dir(missing)); !os.IsNotExist(err) {
		t.Fatalf("publish created the missing directory (lstat: %v)", err)
	}

	// Rename failure: the target is a non-empty directory. It stays what it
	// was and the temp file is cleaned up.
	squat := filepath.Join(dir, "squat")
	if err := os.MkdirAll(filepath.Join(squat, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := PublishFile(squat, []byte("x")); err == nil {
		t.Fatal("publish over a directory succeeded")
	}
	if st, err := os.Stat(filepath.Join(squat, "child")); err != nil || !st.IsDir() {
		t.Fatalf("directory target damaged: %v", err)
	}
	if _, err := os.Lstat(squat + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left after a failed rename (lstat: %v)", err)
	}

	// The data fsync runs on the temp file while the old target is still in
	// place: a crash right after it finds the old content under the name.
	synced := 0
	hookFsync(t, func(f *os.File) error {
		synced++
		if f.Name() != path+".tmp" {
			t.Errorf("fsync of %s, want the temp file", f.Name())
		}
		if got, _ := os.ReadFile(path); string(got) != "3" {
			t.Errorf("target holds %q at fsync time, want the old content", got)
		}
		if got, _ := os.ReadFile(f.Name()); string(got) != "four" {
			t.Errorf("temp file holds %q at fsync time, want the new content", got)
		}
		return f.Sync()
	})
	if err := PublishFile(path, []byte("four")); err != nil {
		t.Fatal(err)
	}
	if synced != 1 {
		t.Fatalf("data fsyncs = %d, want 1", synced)
	}
	requireFile(t, path, "four")

	// A failing fsync publishes nothing.
	errSync := errors.New("injected fsync failure")
	hookFsync(t, func(*os.File) error { return errSync })
	if err := PublishFile(path, []byte("five")); !errors.Is(err, errSync) {
		t.Fatalf("publish with a failing fsync = %v, want the fsync error", err)
	}
	requireFile(t, path, "four")
}

// TestSaveManifestSyncsBeforeRename: the manifest's bytes are fsynced before
// its name moves (SaveManifest used to rename an unsynced temp file, so a
// crash could leave MANIFEST.json naming no data: a store that no longer
// opens), and an fsync failure is SaveManifest's error with the old manifest
// still in place.
func TestSaveManifestSyncsBeforeRename(t *testing.T) {
	dir := t.TempDir()
	if err := SaveManifest(dir, Manifest{Version: 1, Shards: 4}); err != nil {
		t.Fatal(err)
	}
	synced := 0
	hookFsync(t, func(f *os.File) error {
		synced++
		if m, ok, err := LoadManifest(dir); err != nil || !ok || m.Shards != 4 {
			t.Errorf("manifest at fsync time = %+v (%v, %v), want the old one", m, ok, err)
		}
		return f.Sync()
	})
	if err := SaveManifest(dir, Manifest{Version: 1, Shards: 8}); err != nil {
		t.Fatal(err)
	}
	if synced != 1 {
		t.Fatalf("SaveManifest issued %d data fsyncs, want 1", synced)
	}
	if m, _, err := LoadManifest(dir); err != nil || m.Shards != 8 {
		t.Fatalf("manifest after save = %+v (%v), want 8 shards", m, err)
	}

	errSync := errors.New("injected fsync failure")
	hookFsync(t, func(*os.File) error { return errSync })
	if err := SaveManifest(dir, Manifest{Version: 1, Shards: 16}); !errors.Is(err, errSync) {
		t.Fatalf("SaveManifest with a failing fsync = %v, want the fsync error", err)
	}
	if m, _, err := LoadManifest(dir); err != nil || m.Shards != 8 {
		t.Fatalf("manifest after a failed save = %+v (%v), want the old 8 shards", m, err)
	}
	if _, err := os.Lstat(filepath.Join(dir, manifestName+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("temp manifest left after a failed save (lstat: %v)", err)
	}
}
