package persist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamloader/internal/obs"
	"streamloader/internal/stt"
)

// emitError marks a replay failure coming from the caller's emit callback,
// as opposed to on-disk corruption: it aborts the replay instead of
// truncating a perfectly valid file.
type emitError struct{ err error }

func (e *emitError) Error() string { return e.err.Error() }
func (e *emitError) Unwrap() error { return e.err }

// WAL record types.
const (
	recSchema byte = 1 // uvarint dictionary id, uvarint length, schema JSON
	recEvents byte = 2 // uvarint count, then count encoded events
)

// frameHeader is [uint32 payload length][uint32 CRC32C(payload)].
const frameHeader = 8

// WALOptions configure one write-ahead log.
type WALOptions struct {
	// Sync is the fsync policy. The log keeps no timer: under SyncInterval
	// its owner calls SyncDirty when UnsyncedSince says a sync is due.
	Sync         SyncPolicy
	SegmentBytes int64 // rotation threshold; 0 = DefaultSegmentBytes
	// MinFile floors the first file number OpenWAL creates. File numbers
	// must never fall behind a recorded ShardMark — reusing a number a
	// checkpoint freed would put fresh records "before" the mark and
	// expose them to a watermark that never saw them.
	MinFile int
	// WriteHist/SyncHist time the log's buffer writes and fsync syscalls;
	// nil handles are no-ops (obs.Histogram is nil-safe).
	WriteHist *obs.Histogram
	SyncHist  *obs.Histogram
}

func (o WALOptions) withDefaults() WALOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	return o
}

// WALFileInfo describes one sealed WAL file, for checkpointing.
type WALFileInfo struct {
	Path   string
	Events int    // event records in the file
	MaxSeq uint64 // highest warehouse seq in the file (if Events > 0)
	Size   int64
}

// fileSync is the one fsync of a log file; tests swap it to fail.
var fileSync = (*os.File).Sync

// monoClock is the origin of dirtySince: durations since it are read off
// the monotonic clock, which a wall-clock step cannot move.
var monoClock = time.Now()

// WAL is a segmented append-only log.
//
// Concurrency: the caller serializes Append, DropObsolete, Bytes, Position,
// Close and CloseHard (the warehouse calls them under the owning shard's
// lock). SyncDirty, Sync and UnsyncedSince may run beside any of them, on
// another goroutine and with no caller lock held: that is the SyncInterval
// syncer. fileMu makes a sync and a file swap (rotation, close, a broken
// rewind) exclusive, so a sync never reaches a closed file and a swap waits
// for a sync in flight; Append's write itself takes no WAL lock.
type WAL struct {
	dir  string
	opts WALOptions

	f        *os.File
	filePath string
	fileNum  int
	fileSize int64
	fileInfo WALFileInfo // accumulating stats for the current file

	sealed []WALFileInfo
	bytes  int64 // total live bytes, sealed + current

	dict *schemaDict
	buf  []byte

	// fileMu guards f and closed against a sync: the caller's lock covers
	// every other access, and a write to either holds both.
	fileMu sync.Mutex
	closed bool
	// dirtySince is when the first append after the last fsync began
	// reached the current file, as monoClock's reading plus one; 0 while no
	// append awaits an fsync. failed holds the first error of an fsync that
	// covered acked appends: the kernel may have dropped those pages, so no
	// later fsync vouches for them, and every later Append fails with it.
	dirtySince atomic.Int64
	failed     atomic.Pointer[error]
}

func walFileName(n int) string { return fmt.Sprintf("wal-%08d.log", n) }

// listWALFiles returns the wal files in dir in log order.
func listWALFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log") {
			files = append(files, filepath.Join(dir, name))
		}
	}
	sort.Strings(files)
	return files, nil
}

// OpenWAL prepares dir for appending. Existing files — already replayed by
// the caller, whose surviving-file info arrives as prior — are retained as
// sealed history until DropObsolete retires them; appends go to a fresh
// file numbered after them.
func OpenWAL(dir string, opts WALOptions, prior []WALFileInfo) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &WAL{
		dir:  dir,
		opts: opts.withDefaults(),
		dict: newSchemaDict(),
	}
	next := 1
	if opts.MinFile > next {
		next = opts.MinFile
	}
	for _, fi := range prior {
		base := filepath.Base(fi.Path)
		var n int
		if _, err := fmt.Sscanf(base, "wal-%d.log", &n); err == nil && n >= next {
			next = n + 1
		}
		w.sealed = append(w.sealed, fi)
		w.bytes += fi.Size
	}
	if err := w.openFile(next); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *WAL) openFile(num int) error {
	path := filepath.Join(w.dir, walFileName(num))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.filePath = path
	w.fileNum = num
	w.fileSize = 0
	w.fileInfo = WALFileInfo{Path: path}
	return nil
}

// frame appends one [len][crc][payload] frame for the payload that encode
// wrote at w.buf[start+frameHeader:], patching the reserved header bytes.
func (w *WAL) frame(start int) {
	payload := w.buf[start+frameHeader:]
	binary.LittleEndian.PutUint32(w.buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.buf[start+4:], checksum(payload))
}

// beginFrame reserves header space and returns the frame's start offset.
func (w *WAL) beginFrame() int {
	start := len(w.buf)
	w.buf = append(w.buf, make([]byte, frameHeader)...)
	return start
}

// appendSchemaRecord encodes one schema-definition frame into w.buf.
func (w *WAL) appendSchemaRecord(id uint64, s *stt.Schema) error {
	js, err := json.Marshal(encodeSchema(s))
	if err != nil {
		return err
	}
	start := w.beginFrame()
	w.buf = append(w.buf, recSchema)
	w.buf = appendUvarint(w.buf, id)
	w.buf = appendUvarint(w.buf, uint64(len(js)))
	w.buf = append(w.buf, js...)
	w.frame(start)
	return nil
}

// Append logs a batch of events: any schemas not yet defined in the current
// file are framed first, then one event-batch frame, all flushed in a
// single write so the batch reaches the kernel atomically with the ack.
// Under SyncAlways it fsyncs before it returns; otherwise it only marks the
// file for the next SyncDirty. After a failed fsync of acked appends it
// fails with that error.
func (w *WAL) Append(events []Event) error {
	if w.closed {
		return fmt.Errorf("persist: WAL is closed")
	}
	if err := w.failed.Load(); err != nil {
		return fmt.Errorf("persist: an earlier WAL fsync failed: %w", *err)
	}
	if len(events) == 0 {
		return nil
	}
	if w.fileSize >= w.opts.SegmentBytes {
		if err := w.rotate(); err != nil {
			return err
		}
	}
	w.buf = w.buf[:0]
	for _, ev := range events {
		id, isNew := w.dict.id(ev.Tuple.Schema)
		if isNew {
			if err := w.appendSchemaRecord(id, ev.Tuple.Schema); err != nil {
				return err
			}
		}
	}
	start := w.beginFrame()
	w.buf = append(w.buf, recEvents)
	w.buf = appendUvarint(w.buf, uint64(len(events)))
	maxSeq := w.fileInfo.MaxSeq
	for _, ev := range events {
		id, _ := w.dict.id(ev.Tuple.Schema)
		w.buf = appendEvent(w.buf, ev, id)
		if ev.Seq > maxSeq {
			maxSeq = ev.Seq
		}
	}
	w.frame(start)

	t0 := w.opts.WriteHist.Start()
	if _, err := w.f.Write(w.buf); err != nil {
		// A partial write leaves torn bytes at the fd's advanced offset;
		// rewind so the next (acked) append cannot land beyond a frame
		// replay will truncate at.
		w.rewind()
		return err
	}
	w.opts.WriteHist.Since(t0)
	if w.opts.Sync == SyncAlways {
		t0 := w.opts.SyncHist.Start()
		if err := fileSync(w.f); err != nil {
			// The frame is intact but the batch is about to be reported
			// failed: take it back out, or replay would resurrect events
			// the caller was told were not stored.
			w.rewind()
			return err
		}
		w.opts.SyncHist.Since(t0)
	} else {
		w.dirtySince.CompareAndSwap(0, int64(time.Since(monoClock))+1)
	}
	w.fileSize += int64(len(w.buf))
	w.bytes += int64(len(w.buf))
	w.fileInfo.Events += len(events)
	w.fileInfo.MaxSeq = maxSeq
	w.fileInfo.Size = w.fileSize
	return nil
}

// rewind restores the current file to the last consistent frame boundary
// after a failed append. If the file cannot be restored, the WAL declares
// itself broken: failing future appends is strictly better than acking
// writes placed beyond a torn frame that replay will cut.
func (w *WAL) rewind() {
	err := w.f.Truncate(w.fileSize)
	if err == nil {
		_, err = w.f.Seek(w.fileSize, 0)
	}
	if err != nil {
		w.fileMu.Lock()
		w.closed = true
		w.f.Close()
		w.fileMu.Unlock()
	}
}

// rotate seals the current file and starts the next one. The fresh file
// re-states every known schema so it can be decoded standalone once
// earlier files are checkpointed away. The sealed file is synced first, and
// the swap excludes a concurrent SyncDirty.
func (w *WAL) rotate() error {
	w.fileMu.Lock()
	defer w.fileMu.Unlock()
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.sealed = append(w.sealed, w.fileInfo)
	if err := w.openFile(w.fileNum + 1); err != nil {
		return err
	}
	w.buf = w.buf[:0]
	for id, s := range w.dict.order {
		if err := w.appendSchemaRecord(uint64(id), s); err != nil {
			return err
		}
	}
	if len(w.buf) > 0 {
		if _, err := w.f.Write(w.buf); err != nil {
			return err
		}
		w.fileSize += int64(len(w.buf))
		w.bytes += int64(len(w.buf))
		w.fileInfo.Size = w.fileSize
	}
	return nil
}

// DropObsolete deletes sealed files whose every event has warehouse seq
// below minLiveSeq — i.e. is no longer held in memory, because it was
// spilled to a segment file or evicted. Returns the bytes reclaimed.
func (w *WAL) DropObsolete(minLiveSeq uint64) int64 {
	var reclaimed int64
	kept := w.sealed[:0]
	for _, fi := range w.sealed {
		if fi.Events == 0 || fi.MaxSeq < minLiveSeq {
			if err := os.Remove(fi.Path); err != nil && !os.IsNotExist(err) {
				kept = append(kept, fi) // try again next checkpoint
				continue
			}
			reclaimed += fi.Size
			w.bytes -= fi.Size
			continue
		}
		kept = append(kept, fi)
	}
	w.sealed = kept
	return reclaimed
}

// Bytes returns the total size of live WAL files, current included.
func (w *WAL) Bytes() int64 { return w.bytes }

// Position returns the append position: the current file's number and
// size. Every record logged from now on sits at or past it.
func (w *WAL) Position() Pos { return Pos{File: w.fileNum, Off: w.fileSize} }

// Sync forces an fsync of the current file regardless of policy. It
// returns the error of any failed fsync before it too: from then on the log
// cannot vouch for what it acked.
func (w *WAL) Sync() error {
	w.fileMu.Lock()
	defer w.fileMu.Unlock()
	return w.syncLocked()
}

// SyncDirty fsyncs the current file if an append reached it since the last
// fsync: the SyncInterval policy's one sync, which its owner calls once
// UnsyncedSince says one is due. A failed fsync is returned by the call that
// met it, and from then on fails every Append; later calls find nothing to
// sync.
func (w *WAL) SyncDirty() error {
	if w.dirtySince.Load() == 0 {
		return nil
	}
	w.fileMu.Lock()
	defer w.fileMu.Unlock()
	if w.dirtySince.Load() == 0 || w.failed.Load() != nil {
		return nil // a failure is reported by the call that met it
	}
	return w.syncLocked()
}

// UnsyncedSince reports when the oldest append that no fsync has covered
// yet reached the file, and false when every append is covered.
func (w *WAL) UnsyncedSince() (time.Time, bool) {
	d := w.dirtySince.Load()
	return monoClock.Add(time.Duration(d - 1)), d != 0
}

// syncLocked fsyncs the current file and records a failure. Caller holds
// fileMu.
func (w *WAL) syncLocked() error {
	if w.closed {
		return nil
	}
	if err := w.failed.Load(); err != nil {
		return *err
	}
	// Cleared before the fsync: an append that lands during it marks the
	// file again, and the next sync covers it.
	w.dirtySince.Store(0)
	t0 := w.opts.SyncHist.Start()
	err := fileSync(w.f)
	w.opts.SyncHist.Since(t0)
	if err != nil {
		w.failed.Store(&err)
	}
	return err
}

// Close syncs and closes the log. Further appends fail. It reports a failed
// fsync, this one's or an earlier one's, before a failed close.
func (w *WAL) Close() error {
	w.fileMu.Lock()
	defer w.fileMu.Unlock()
	if w.closed {
		return nil
	}
	err := w.syncLocked()
	w.closed = true
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// CloseHard closes the log without syncing, simulating a crash: whatever
// the OS has not flushed is at the kernel's mercy, exactly as after a
// process kill. For recovery tests.
func (w *WAL) CloseHard() {
	w.fileMu.Lock()
	defer w.fileMu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	w.f.Close()
}

// ReplayResult summarizes a WAL replay.
type ReplayResult struct {
	Files     []WALFileInfo // surviving files, in log order
	Events    int           // events handed to emit
	Truncated int           // files whose torn tail was cut
	MaxSeq    uint64        // highest warehouse seq seen
}

// ReplayWAL decodes every record in dir's WAL files in order, invoking
// emit per event with the record's log position (so callers can apply
// position-scoped filters like the retention watermark). A file ends at
// its first bad frame — short, torn or failing its checksum — and is
// truncated there so the next writer starts clean; later files still
// replay, because every file is schema-self-contained. The caller filters
// events that are durable elsewhere (spilled segments, retention
// watermark).
func ReplayWAL(dir string, emit func(Event, Pos) error) (ReplayResult, error) {
	var res ReplayResult
	files, err := listWALFiles(dir)
	if err != nil {
		return res, err
	}
	dict := map[uint64]*stt.Schema{}
	for _, path := range files {
		fi, truncated, err := replayFile(path, dict, emit, &res)
		if err != nil {
			return res, err
		}
		if truncated {
			res.Truncated++
		}
		res.Files = append(res.Files, fi)
	}
	return res, nil
}

// replayFile decodes one WAL file, truncating at the first bad frame.
func replayFile(path string, dict map[uint64]*stt.Schema, emit func(Event, Pos) error, res *ReplayResult) (WALFileInfo, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return WALFileInfo{}, false, err
	}
	fileNum := 0
	fmt.Sscanf(filepath.Base(path), "wal-%d.log", &fileNum)
	info := WALFileInfo{Path: path}
	pos := 0
	good := 0 // offset past the last fully-valid frame
	for {
		if pos+frameHeader > len(data) {
			break
		}
		plen := int(binary.LittleEndian.Uint32(data[pos:]))
		if pos+frameHeader+plen > len(data) {
			break
		}
		payload := data[pos+frameHeader : pos+frameHeader+plen]
		if checksum(payload) != binary.LittleEndian.Uint32(data[pos+4:]) {
			break
		}
		recPos := Pos{File: fileNum, Off: int64(pos)}
		if err := replayRecord(payload, recPos, dict, emit, &info, res); err != nil {
			var ee *emitError
			if errors.As(err, &ee) {
				return info, false, ee.err
			}
			// A checksummed record that fails to decode is corruption the
			// frame CRC missed (or a format bug); stop at the last good
			// frame rather than guessing.
			break
		}
		pos += frameHeader + plen
		good = pos
	}
	truncated := good < len(data)
	if truncated {
		if err := os.Truncate(path, int64(good)); err != nil {
			return info, false, err
		}
	}
	info.Size = int64(good)
	return info, truncated, nil
}

func replayRecord(payload []byte, recPos Pos, dict map[uint64]*stt.Schema, emit func(Event, Pos) error, info *WALFileInfo, res *ReplayResult) error {
	if len(payload) == 0 {
		return fmt.Errorf("persist: empty record")
	}
	d := &decoder{data: payload, pos: 1}
	switch payload[0] {
	case recSchema:
		id := d.uvarint()
		js := d.bytes(int(d.uvarint()))
		if d.err != nil {
			return d.err
		}
		var sj schemaJSON
		if err := json.Unmarshal(js, &sj); err != nil {
			return err
		}
		schema, err := globalInterner.intern(sj)
		if err != nil {
			return err
		}
		dict[id] = schema
		return nil
	case recEvents:
		n := d.uvarint()
		if d.err != nil {
			return d.err
		}
		if n > uint64(len(payload)) {
			return fmt.Errorf("persist: event count %d exceeds record size", n)
		}
		// Decode the whole batch before emitting any of it: a record that
		// decodes partway is treated as corrupt in full, so the warehouse
		// never ingests events the truncation below then removes from disk.
		batch := make([]Event, 0, n)
		for i := uint64(0); i < n; i++ {
			batch = append(batch, d.event(dict))
			if d.err != nil {
				return d.err
			}
		}
		for _, ev := range batch {
			if err := emit(ev, recPos); err != nil {
				return &emitError{err}
			}
			info.Events++
			if ev.Seq > info.MaxSeq {
				info.MaxSeq = ev.Seq
			}
			res.Events++
			if ev.Seq > res.MaxSeq {
				res.MaxSeq = ev.Seq
			}
		}
		return nil
	default:
		return fmt.Errorf("persist: unknown record type %d", payload[0])
	}
}
