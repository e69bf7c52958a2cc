package persist

import (
	"os"
	"path/filepath"
)

// fsyncFile is the data fsync PublishFile issues before its rename. It is a
// variable only so tests can watch the ordering or make the sync fail;
// nothing outside a test assigns it.
var fsyncFile = (*os.File).Sync

// PublishFile replaces the file at path with data, atomically and durably:
// write path+".tmp", fsync it, close it, rename it over path, fsync the
// parent directory. A crash leaves the old content or the new, never a mix
// and never a name that outlived its bytes; when PublishFile returns nil the
// new content survives a crash. On any failure the temp file is removed, the
// old target is left as it was (except a failed directory sync, which
// follows the rename) and the error is returned.
//
// It is the write→validate→swap discipline's one implementation — segment
// files, the manifest and view checkpoints all go through it — and holds the
// only os.Rename outside tests (CI checks that).
func PublishFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err // nothing of ours to remove
	}
	_, err = f.Write(data)
	if err == nil {
		err = fsyncFile(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
